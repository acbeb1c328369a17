//! The area model: what each candidate ISA costs in silicon.
//!
//! Cycle counts alone cannot rank ASIP designs — a 32-lane SIMD datapath
//! with every custom family enabled always wins on cycles. The explorer
//! therefore prices each candidate with a simple additive gate-area
//! model, normalized so the plain scalar core costs `base`: each extra
//! SIMD lane and each custom-instruction family block adds area, and a
//! down-scaled (slower) implementation of the custom units gets an area
//! discount. The model is data, not code: it loads from a JSON file kept
//! next to the ISA descriptions (`targets/area_model_default.json`), so
//! recalibrating against a real synthesis flow is an edit, not a rebuild.
//! [`AreaModel::price`] prices any spec, off-grid discovery points and
//! synthetic fused instructions included.

use crate::grid::Candidate;
use matic_isa::json::{parse, Json};
use matic_isa::{CostModel, FusedOp, FusedPrim, IsaSpec, OpClass};

/// Schema identifier stamped into every area-model document.
pub const AREA_SCHEMA: &str = "matic-area-v1";

/// Additive normalized-gate-area model for candidate ISAs.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaModel {
    /// Area of the plain scalar core (everything else is relative to it).
    pub base: f64,
    /// Area of each SIMD lane beyond the first.
    pub per_lane: f64,
    /// Area of the SIMD control/issue block (present iff `simd`).
    pub simd_block: f64,
    /// Area of the complex-arithmetic block (present iff `complex`).
    pub complex_block: f64,
    /// Area of the MAC accumulate block (present iff `mac`).
    pub mac_block: f64,
    /// How much area a slower custom-unit implementation saves: at cost
    /// scale `s`, accelerator area divides by `1 + slow_discount·(s−1)`.
    /// 0 = no savings; must stay below 1 so the divisor is positive for
    /// every admissible scale.
    pub slow_discount: f64,
}

impl Default for AreaModel {
    /// Defaults loosely calibrated so the paper-like `w8_simd_cplx_mac`
    /// point costs ≈ 2.2× the scalar core — in the range ASIP datapath
    /// extensions typically add.
    fn default() -> AreaModel {
        AreaModel {
            base: 1.0,
            per_lane: 0.08,
            simd_block: 0.35,
            complex_block: 0.30,
            mac_block: 0.20,
            slow_discount: 0.5,
        }
    }
}

impl AreaModel {
    /// Normalized area of one grid candidate: [`AreaModel::price`] of its
    /// spec, with no fused instruction.
    pub fn area(&self, c: &Candidate) -> f64 {
        self.price(&c.spec, None)
    }

    /// Normalized area of an arbitrary spec, plus an optional synthetic
    /// fused instruction at the given cycle cost.
    ///
    /// Each custom-unit family (SIMD lanes and control, complex, MAC) is
    /// discounted by `1 + slow_discount·(s − 1)`, where `s` is the
    /// family's cost scale read from the spec's cost table. The blocks at
    /// the SIMD family's scale are summed before one division, so a grid
    /// candidate, whose families share one scale, is priced exactly as
    /// `base + accel / divisor` of its grid coordinates.
    pub fn price(&self, spec: &IsaSpec, fused: Option<(FusedOp, u32)>) -> f64 {
        let defaults = CostModel::dsp_default();
        let scale = |family| family_scale(spec, &defaults, family);
        let (f, simd) = (spec.features, scale(SIMD_FAMILY));
        let mut accel = self.per_lane * spec.vector_width.saturating_sub(1) as f64;
        let mut apart = 0.0;
        for (present, block, s) in [
            (f.simd, self.simd_block, simd),
            (f.complex, self.complex_block, scale(COMPLEX_FAMILY)),
            (f.mac, self.mac_block, scale(MAC_FAMILY)),
        ] {
            if present && s == simd {
                accel += block;
            } else if present {
                apart += block / self.discount(s);
            }
        }
        let fused = fused.map_or(0.0, |(fop, cost)| self.fused_block(fop, cost));
        self.base + accel / self.discount(simd) + apart + fused
    }

    /// The area divisor of a custom unit implemented at cost scale `s`.
    fn discount(&self, s: f64) -> f64 {
        1.0 + self.slow_discount * (s - 1.0)
    }

    /// Area of the synthetic fused-instruction block.
    ///
    /// One joined op saves one result bus; the block is scaled by how fast
    /// the fused unit is clocked relative to the relaxed (sequential) sum
    /// of its components' stock costs — a single-cycle fused MAC costs
    /// more silicon than a three-cycle one.
    fn fused_block(&self, fop: FusedOp, cost: u32) -> f64 {
        let defaults = CostModel::dsp_default();
        let prim_cost = |p: FusedPrim| match p {
            FusedPrim::Mul => defaults.cost(OpClass::ScalarMul) as f64,
            FusedPrim::Add | FusedPrim::Sub => defaults.cost(OpClass::ScalarAlu) as f64,
        };
        let relaxed = prim_cost(fop.first()) + prim_cost(fop.second());
        let joins = (fop.op_count() - 1) as f64;
        let speed = (1.0 + self.slow_discount * (relaxed - cost as f64)).clamp(0.2, 2.0);
        0.05 * joins * speed
    }

    /// Checks the model's coefficients for nonsense values.
    ///
    /// # Errors
    ///
    /// Names the offending coefficient.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("base", self.base),
            ("per_lane", self.per_lane),
            ("simd_block", self.simd_block),
            ("complex_block", self.complex_block),
            ("mac_block", self.mac_block),
            ("slow_discount", self.slow_discount),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!(
                    "area model `{name}` must be a finite non-negative number (got {v})"
                ));
            }
        }
        if self.base <= 0.0 {
            return Err("area model `base` must be positive".to_string());
        }
        if self.slow_discount >= 1.0 {
            return Err("area model `slow_discount` must be below 1".to_string());
        }
        Ok(())
    }

    /// Serializes the model (the on-disk format).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(AREA_SCHEMA.into())),
            ("base".into(), Json::Num(self.base)),
            ("per_lane".into(), Json::Num(self.per_lane)),
            ("simd_block".into(), Json::Num(self.simd_block)),
            ("complex_block".into(), Json::Num(self.complex_block)),
            ("mac_block".into(), Json::Num(self.mac_block)),
            ("slow_discount".into(), Json::Num(self.slow_discount)),
        ])
    }

    /// Parses and validates a model from JSON text. Unknown keys are
    /// rejected so typos in model files surface immediately.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn from_json(text: &str) -> Result<AreaModel, String> {
        let doc = parse(text)?;
        let Json::Obj(fields) = &doc else {
            return Err("area model must be a JSON object".to_string());
        };
        for (key, _) in fields {
            if !matches!(
                key.as_str(),
                "schema"
                    | "base"
                    | "per_lane"
                    | "simd_block"
                    | "complex_block"
                    | "mac_block"
                    | "slow_discount"
            ) {
                return Err(format!("unknown area-model field `{key}`"));
            }
        }
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing `schema`".to_string())?;
        if schema != AREA_SCHEMA {
            return Err(format!("schema `{schema}`, expected `{AREA_SCHEMA}`"));
        }
        let num = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or non-numeric area-model field `{key}`"))
        };
        let model = AreaModel {
            base: num("base")?,
            per_lane: num("per_lane")?,
            simd_block: num("simd_block")?,
            complex_block: num("complex_block")?,
            mac_block: num("mac_block")?,
            slow_discount: num("slow_discount")?,
        };
        model.validate()?;
        Ok(model)
    }
}

/// MAC-family ops (gated on `features.mac`).
const MAC_FAMILY: &[OpClass] = &[
    OpClass::VectorMac,
    OpClass::ComplexMac,
    OpClass::VComplexMac,
];

/// Complex-family ops (gated on `features.complex`; the vector-complex
/// ops price the complex datapath, their lanes are the SIMD term's job).
const COMPLEX_FAMILY: &[OpClass] = &[
    OpClass::ComplexAdd,
    OpClass::ComplexMul,
    OpClass::ComplexConj,
    OpClass::VComplexAdd,
    OpClass::VComplexMul,
];

/// SIMD-family ops (gated on `features.simd`).
const SIMD_FAMILY: &[OpClass] = &[
    OpClass::VectorAlu,
    OpClass::VectorMul,
    OpClass::VectorDiv,
    OpClass::VectorRedAdd,
    OpClass::VectorRedMinMax,
    OpClass::VectorLoad,
    OpClass::VectorStore,
];

/// Effective cost scale of one unit family: the smallest ratio of an
/// explicitly priced op's cost to its stock `dsp16` cost, clamped to the
/// admissible scale range. A family with no priced ops scales at 1. The
/// minimum sees through the grid's `ceil` rounding: every family holds a
/// stock-cost-2 op, whose ratio is exact for the grid's scales.
fn family_scale(spec: &IsaSpec, defaults: &CostModel, family: &[OpClass]) -> f64 {
    let mut scale = f64::INFINITY;
    for &op in family {
        if let Some(cost) = spec.costs.entry(op) {
            scale = scale.min(cost as f64 / defaults.cost(op) as f64);
        }
    }
    if scale.is_finite() {
        scale.clamp(0.25, 8.0)
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{build_spec, Candidate};
    use matic::Features;

    fn candidate(width: usize, features: Features, scale: f64) -> Candidate {
        Candidate {
            spec: build_spec(width, features, scale),
            width,
            features,
            cost_scale: scale,
        }
    }

    #[test]
    fn scalar_core_costs_base_and_features_add_area() {
        let m = AreaModel::default();
        let scalar = candidate(1, Features::none(), 1.0);
        assert_eq!(m.area(&scalar), m.base);
        let full = candidate(8, Features::all(), 1.0);
        assert!(m.area(&full) > 2.0 * m.base, "{}", m.area(&full));
        // Monotone in width and features.
        assert!(m.area(&candidate(16, Features::all(), 1.0)) > m.area(&full));
        let no_mac = Features {
            simd: true,
            complex: true,
            mac: false,
        };
        assert!(m.area(&candidate(8, no_mac, 1.0)) < m.area(&full));
    }

    #[test]
    fn slower_custom_units_are_smaller() {
        let m = AreaModel::default();
        let fast = candidate(8, Features::all(), 1.0);
        let slow = candidate(8, Features::all(), 2.0);
        assert!(m.area(&slow) < m.area(&fast));
        assert!(m.area(&slow) > m.base, "still larger than the scalar core");
    }

    #[test]
    fn json_round_trip_and_validation() {
        let m = AreaModel::default();
        let text = m.to_json().pretty();
        let back = AreaModel::from_json(&text).unwrap();
        assert_eq!(m, back);

        let err = AreaModel::from_json(&text.replace("\"base\": 1", "\"base\": 0")).unwrap_err();
        assert!(err.contains("base"), "{err}");
        let err = AreaModel::from_json(&text.replace("\"per_lane\"", "\"per_lance\"")).unwrap_err();
        assert!(err.contains("per_lance"), "{err}");
        assert!(AreaModel::from_json("{}").is_err());
    }

    #[test]
    fn fused_block_shrinks_as_the_unit_slows() {
        let m = AreaModel::default();
        let mut prev = f64::INFINITY;
        for cost in 1..=6 {
            let a = m.fused_block(FusedOp::MulAdd, cost);
            assert!(a > 0.0);
            assert!(a <= prev, "cost {cost}: {a} > {prev}");
            prev = a;
        }
        // Clamped at both ends: an absurdly slow unit still costs silicon.
        assert!(m.fused_block(FusedOp::MulAdd, 100) > 0.0);
    }

    #[test]
    fn a_fused_instruction_always_adds_area() {
        let m = AreaModel::default();
        let spec = IsaSpec::dsp16();
        let without = m.price(&spec, None);
        for &fop in FusedOp::ALL {
            let with = m.price(&spec, Some((fop, 2)));
            assert!(with > without, "{fop}");
        }
    }

    #[test]
    fn per_op_perturbations_move_only_their_family() {
        let m = AreaModel::default();
        let base = IsaSpec::dsp16();
        let a0 = m.price(&base, None);
        // Slowing every MAC op shrinks the MAC block only.
        let mut slow_mac = base.clone();
        for &op in MAC_FAMILY {
            slow_mac.costs.set_cost(op, base.cost(op) * 2);
        }
        let a1 = m.price(&slow_mac, None);
        assert!(a1 < a0);
        let expected = a0 - m.mac_block + m.mac_block / 1.5;
        assert!((a1 - expected).abs() < 1e-12, "{a1} vs {expected}");
        // Slowing a single SIMD op does not change the family minimum
        // when a cheaper-ratio op remains priced.
        let mut one_slow = base.clone();
        one_slow.costs.set_cost(OpClass::VectorDiv, 30);
        assert!((m.price(&one_slow, None) - a0).abs() < 1e-12);
    }
}
