//! Cycle accounting.

use matic_isa::{IsaSpec, OpClass};
use std::collections::BTreeMap;
use std::fmt;

/// Cycle counts accumulated during one simulated kernel invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleReport {
    /// Total cycles.
    pub total: u64,
    /// Instructions issued.
    pub instructions: u64,
    /// Cycles attributed per operation class.
    pub by_class: BTreeMap<OpClass, u64>,
}

impl CycleReport {
    /// Creates an empty report.
    pub fn new() -> CycleReport {
        CycleReport::default()
    }

    /// Charges `count` issues of `class` at `cycles_each`.
    pub fn charge(&mut self, class: OpClass, cycles_each: u32, count: u64) {
        self.total += cycles_each as u64 * count;
        self.instructions += count;
        *self.by_class.entry(class).or_default() += cycles_each as u64 * count;
    }

    /// Cycles attributed to one class.
    pub fn cycles_for(&self, class: OpClass) -> u64 {
        self.by_class.get(&class).copied().unwrap_or(0)
    }

    /// Cycles spent in vector (SIMD) instruction classes.
    pub fn vector_cycles(&self) -> u64 {
        self.by_class
            .iter()
            .filter(|(c, _)| c.is_vector())
            .map(|(_, v)| *v)
            .sum()
    }

    /// Cycles spent in complex-arithmetic instruction classes.
    pub fn complex_cycles(&self) -> u64 {
        self.by_class
            .iter()
            .filter(|(c, _)| c.is_complex())
            .map(|(_, v)| *v)
            .sum()
    }

    /// This report, measured on `from`, priced with the cost table of
    /// `to`: each class's issue count is its cycles divided by its cost
    /// on `from`, charged again at its cost on `to`. `instructions` is
    /// kept; `by_class` and `total` are rebuilt.
    ///
    /// The simulator reads costs only to charge them, so a run on `to`
    /// takes the same path, issues the same classes the same number of
    /// times and returns the same outputs as the run on `from` whenever
    /// the two machines agree on everything else: SIMD width, feature
    /// families and which classes exist as instructions.
    ///
    /// # Errors
    ///
    /// When the machines differ in `vector_width`, `features` or
    /// [`IsaSpec::supports`] for any class, or when a touched class costs
    /// zero cycles on `from` or its cycles are not a multiple of that
    /// cost (the counts cannot be recovered).
    pub fn repriced(&self, from: &IsaSpec, to: &IsaSpec) -> Result<CycleReport, String> {
        if from.vector_width != to.vector_width || from.features != to.features {
            return Err(format!(
                "`{}` and `{}` are different machines (width or features differ)",
                from.name, to.name
            ));
        }
        if let Some(op) = OpClass::ALL
            .iter()
            .find(|&&op| from.supports(op) != to.supports(op))
        {
            return Err(format!(
                "`{}` and `{}` disagree on whether `{op}` is an instruction",
                from.name, to.name
            ));
        }
        let mut out = CycleReport {
            instructions: self.instructions,
            ..CycleReport::default()
        };
        for (&class, &cycles) in &self.by_class {
            let cost = from.cost(class) as u64;
            if cost == 0 || cycles % cost != 0 {
                return Err(format!(
                    "`{class}` spent {cycles} cycles at {cost} per issue on `{}`",
                    from.name
                ));
            }
            let priced = cycles / cost * to.cost(class) as u64;
            out.total += priced;
            out.by_class.insert(class, priced);
        }
        Ok(out)
    }

    /// Merges another report into this one.
    pub fn absorb(&mut self, other: &CycleReport) {
        self.total += other.total;
        self.instructions += other.instructions;
        for (c, v) in &other.by_class {
            *self.by_class.entry(*c).or_default() += v;
        }
    }
}

impl fmt::Display for CycleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} cycles / {} instructions",
            self.total, self.instructions
        )?;
        for (c, v) in &self.by_class {
            writeln!(f, "  {c:>8}: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let mut r = CycleReport::new();
        r.charge(OpClass::ScalarMul, 2, 10);
        r.charge(OpClass::VectorMac, 2, 4);
        assert_eq!(r.total, 28);
        assert_eq!(r.instructions, 14);
        assert_eq!(r.cycles_for(OpClass::ScalarMul), 20);
        assert_eq!(r.vector_cycles(), 8);
    }

    #[test]
    fn absorb_merges() {
        let mut a = CycleReport::new();
        a.charge(OpClass::Load, 2, 3);
        let mut b = CycleReport::new();
        b.charge(OpClass::Load, 2, 1);
        b.charge(OpClass::Branch, 1, 5);
        a.absorb(&b);
        assert_eq!(a.cycles_for(OpClass::Load), 8);
        assert_eq!(a.total, 13);
    }

    fn doubled(spec: &IsaSpec) -> IsaSpec {
        let mut to = spec.clone();
        for &op in OpClass::ALL {
            if spec.costs.has_cost(op) {
                to.costs.set_cost(op, spec.cost(op) * 2);
            }
        }
        to
    }

    #[test]
    fn repriced_recharges_each_class_at_the_new_cost() {
        let from = IsaSpec::dsp16();
        let mut r = CycleReport::new();
        r.charge(OpClass::ScalarMul, from.cost(OpClass::ScalarMul), 10);
        r.charge(OpClass::VectorMac, from.cost(OpClass::VectorMac), 4);
        let mut to = from.clone();
        to.costs.set_cost(OpClass::VectorMac, 5);
        let mut want = CycleReport::new();
        want.charge(OpClass::ScalarMul, 2, 10);
        want.charge(OpClass::VectorMac, 5, 4);
        assert_eq!(r.repriced(&from, &to), Ok(want));
        assert_eq!(r.repriced(&from, &from), Ok(r.clone()));
    }

    #[test]
    fn repriced_rejects_a_different_width() {
        let from = IsaSpec::dsp16();
        let to = doubled(&IsaSpec::with_width(4));
        let err = CycleReport::new().repriced(&from, &to).unwrap_err();
        assert!(err.contains("different machines"), "{err}");
    }

    #[test]
    fn repriced_rejects_different_features() {
        let from = IsaSpec::dsp16();
        let mut to = doubled(&from);
        to.features.mac = false;
        let err = CycleReport::new().repriced(&from, &to).unwrap_err();
        assert!(err.contains("different machines"), "{err}");
    }

    #[test]
    fn repriced_rejects_a_different_instruction_set() {
        // Pricing a fused unit adds an instruction without touching the
        // width or the feature families.
        let from = IsaSpec::dsp16();
        let mut to = from.clone();
        to.costs.set_cost(OpClass::Fused, 3);
        let err = CycleReport::new().repriced(&from, &to).unwrap_err();
        assert!(err.contains("`fused`"), "{err}");
    }

    #[test]
    fn repriced_rejects_a_zero_cost_touched_class() {
        let mut from = IsaSpec::dsp16();
        from.costs.set_cost(OpClass::Load, 0);
        let mut r = CycleReport::new();
        r.charge(OpClass::Load, 0, 7);
        let err = r.repriced(&from, &IsaSpec::dsp16()).unwrap_err();
        assert!(err.contains("at 0 per issue"), "{err}");
        // An untouched zero-cost class does not matter.
        let r = CycleReport::new();
        assert_eq!(r.repriced(&from, &IsaSpec::dsp16()), Ok(CycleReport::new()));
    }

    #[test]
    fn repriced_rejects_cycles_that_are_not_whole_issues() {
        let from = IsaSpec::dsp16();
        let mut r = CycleReport::new();
        r.by_class.insert(OpClass::ScalarMul, 3);
        let err = r.repriced(&from, &doubled(&from)).unwrap_err();
        assert!(err.contains("3 cycles at 2 per issue"), "{err}");
    }
}
