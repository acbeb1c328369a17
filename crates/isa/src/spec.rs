//! The parameterized ISA description.
//!
//! The DATE'16 paper's key retargetability claim is that "the specialized
//! instruction set of the target processor [is described] in a
//! parameterized way allowing the support of any processor". [`IsaSpec`]
//! is that description: which custom-instruction classes exist, the SIMD
//! width, per-class cycle costs, and the intrinsic-name prefix used in the
//! generated ANSI C. Specs serialize to JSON so new targets are data, not
//! code.

use crate::json::{self, Json};
use crate::op::OpClass;
use std::collections::BTreeMap;
use std::fmt;

/// Which custom-instruction families a target implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Features {
    /// SIMD element-wise/reduction instructions (`vadd`, `vmul`, `vred*`…).
    pub simd: bool,
    /// Complex-arithmetic instructions (`cadd`, `cmul`, `cmac`, `cconj`).
    pub complex: bool,
    /// Multiply-accumulate instructions (`vmac`, `cmac`).
    pub mac: bool,
}

impl Features {
    /// Everything enabled.
    pub fn all() -> Features {
        Features {
            simd: true,
            complex: true,
            mac: true,
        }
    }

    /// Nothing enabled (plain scalar core).
    pub fn none() -> Features {
        Features {
            simd: false,
            complex: false,
            mac: false,
        }
    }

    /// Every feature subset, in a stable order (the ablation axis of the
    /// design-space grid: 2³ = 8 combinations).
    pub fn subsets() -> [Features; 8] {
        let mut out = [Features::none(); 8];
        for (i, f) in out.iter_mut().enumerate() {
            f.simd = i & 1 != 0;
            f.complex = i & 2 != 0;
            f.mac = i & 4 != 0;
        }
        out
    }

    /// Whether any custom-instruction family is enabled.
    pub fn any(&self) -> bool {
        self.simd || self.complex || self.mac
    }
}

/// Cycle costs per operation class.
///
/// Costs are *per issue*: a `VectorMul` costs `cost(VectorMul)` cycles and
/// retires `vector_width` lane results, which is exactly how the custom
/// instructions of the paper's ASIP amortize work.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CostModel {
    costs: BTreeMap<OpClass, u32>,
}

impl CostModel {
    /// A cost model with the default DSP-like latencies.
    pub fn dsp_default() -> CostModel {
        let mut costs = BTreeMap::new();
        for &(op, c) in &[
            (OpClass::ScalarAlu, 1),
            (OpClass::ScalarMul, 2),
            (OpClass::ScalarDiv, 8),
            (OpClass::ScalarSqrt, 12),
            (OpClass::ScalarTrans, 20),
            (OpClass::Load, 1),
            (OpClass::Store, 1),
            (OpClass::Branch, 1),
            (OpClass::Call, 4),
            (OpClass::VectorAlu, 1),
            (OpClass::VectorMul, 2),
            (OpClass::VectorDiv, 10),
            (OpClass::VectorMac, 2),
            (OpClass::VectorRedAdd, 2),
            (OpClass::VectorRedMinMax, 2),
            (OpClass::VectorLoad, 1),
            (OpClass::VectorStore, 1),
            (OpClass::ComplexAdd, 1),
            (OpClass::ComplexMul, 2),
            (OpClass::ComplexMac, 2),
            (OpClass::ComplexConj, 1),
            (OpClass::VComplexAdd, 1),
            (OpClass::VComplexMul, 2),
            (OpClass::VComplexMac, 2),
        ] {
            costs.insert(op, c);
        }
        CostModel { costs }
    }

    /// Cycles charged per issue of `op`.
    pub fn cost(&self, op: OpClass) -> u32 {
        self.costs.get(&op).copied().unwrap_or(1)
    }

    /// Overrides the cost of one class.
    pub fn set_cost(&mut self, op: OpClass, cycles: u32) {
        self.costs.insert(op, cycles);
    }

    /// Whether `op` has an explicit entry (as opposed to the implicit
    /// 1-cycle fallback of [`CostModel::cost`]). [`OpClass::Fused`]
    /// availability is keyed on this: the default tables carry no `fused`
    /// entry, so only specs that explicitly price a fused unit have one.
    pub fn has_cost(&self, op: OpClass) -> bool {
        self.costs.contains_key(&op)
    }

    /// The explicit entry for `op`, if any.
    pub fn entry(&self, op: OpClass) -> Option<u32> {
        self.costs.get(&op).copied()
    }

    /// Removes the explicit entry for `op` (for [`OpClass::Fused`], this
    /// removes the fused unit).
    pub fn clear_cost(&mut self, op: OpClass) {
        self.costs.remove(&op);
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::dsp_default()
    }
}

/// A complete parameterized target description.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IsaSpec {
    /// Target name (used in reports and generated-file headers).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// SIMD lanes per vector register (1 = no SIMD datapath).
    pub vector_width: usize,
    /// Which custom-instruction families exist.
    pub features: Features,
    /// Cycle cost per operation class.
    pub costs: CostModel,
    /// Prefix for intrinsic functions in generated C (e.g. `__asip`).
    pub intrinsic_prefix: String,
}

impl IsaSpec {
    /// The paper-like DSP ASIP: 8-lane SIMD, complex arithmetic and MAC
    /// custom instructions.
    pub fn dsp16() -> IsaSpec {
        IsaSpec {
            name: "dsp16".to_string(),
            description:
                "DSP-oriented ASIP with 8-lane SIMD, complex-arithmetic and MAC custom instructions"
                    .to_string(),
            vector_width: 8,
            features: Features::all(),
            costs: CostModel::dsp_default(),
            intrinsic_prefix: "__asip".to_string(),
        }
    }

    /// A plain scalar core — the machine model for the MATLAB-Coder-like
    /// baseline (no custom instructions at all).
    pub fn scalar_baseline() -> IsaSpec {
        IsaSpec {
            name: "scalar".to_string(),
            description: "plain scalar core without custom instructions (baseline)".to_string(),
            vector_width: 1,
            features: Features::none(),
            costs: CostModel::dsp_default(),
            intrinsic_prefix: "__asip".to_string(),
        }
    }

    /// The builtin targets, in listing order: `dsp16`, `scalar`,
    /// `dsp16_w4` and `dsp16_w16`. `matic targets` lists and dumps them,
    /// and the compile server resolves a request's `target` name against
    /// them.
    pub fn builtins() -> [IsaSpec; 4] {
        [
            IsaSpec::dsp16(),
            IsaSpec::scalar_baseline(),
            IsaSpec::with_width(4),
            IsaSpec::with_width(16),
        ]
    }

    /// The builtin target called `name` (see [`IsaSpec::builtins`]).
    pub fn builtin(name: &str) -> Option<IsaSpec> {
        IsaSpec::builtins().into_iter().find(|s| s.name == name)
    }

    /// A `dsp16` variant with a different SIMD width (for the
    /// width-sweep experiment).
    pub fn with_width(width: usize) -> IsaSpec {
        let mut spec = IsaSpec::dsp16();
        spec.name = format!("dsp16_w{width}");
        spec.vector_width = width.max(1);
        spec.normalize();
        spec.describe_variant();
        spec
    }

    /// A `dsp16` variant with selected feature families (for the
    /// ablation experiment).
    pub fn with_features(features: Features) -> IsaSpec {
        let mut spec = IsaSpec::dsp16();
        spec.features = features;
        spec.name = format!(
            "dsp16{}{}{}",
            if features.simd { "_simd" } else { "" },
            if features.complex { "_cplx" } else { "" },
            if features.mac { "_mac" } else { "" },
        );
        if spec.name == "dsp16" {
            spec.name = "dsp16_none".to_string();
        }
        spec.normalize();
        spec.describe_variant();
        spec
    }

    /// Describes a normalized `dsp16` variant by its own width and
    /// features (not `dsp16`'s).
    fn describe_variant(&mut self) {
        let f = self.features;
        self.description = format!(
            "dsp16 variant: {} lanes, simd={}, complex={}, mac={}",
            self.vector_width, f.simd, f.complex, f.mac
        );
    }

    /// Canonicalizes the width/feature interaction in place: a spec
    /// without the `simd` feature has no SIMD datapath (`vector_width`
    /// collapses to 1), and a 1-lane datapath cannot claim `simd`.
    ///
    /// Width 0 is also lifted to 1 — the normalized form always passes
    /// [`IsaSpec::validate`]'s width/feature checks, which is what the
    /// design-space explorer relies on to deduplicate candidates.
    pub fn normalize(&mut self) {
        if self.vector_width <= 1 {
            self.features.simd = false;
        }
        if !self.features.simd {
            self.vector_width = 1;
        }
    }

    /// Whether [`IsaSpec::normalize`] would leave the spec unchanged.
    pub fn is_normalized(&self) -> bool {
        let mut c = self.clone();
        c.normalize();
        c == *self
    }

    /// Whether the target can issue `op` as a single custom instruction.
    pub fn supports(&self, op: OpClass) -> bool {
        if op.is_baseline() {
            return true;
        }
        let f = self.features;
        match op {
            // A fused unit exists only when the spec explicitly prices it
            // (discovery injects the entry; stock targets have none).
            OpClass::Fused => self.costs.has_cost(OpClass::Fused),
            OpClass::VectorMac => f.simd && f.mac && self.vector_width > 1,
            OpClass::ComplexMac => f.complex && f.mac,
            OpClass::VComplexMac => f.simd && f.complex && f.mac && self.vector_width > 1,
            OpClass::VComplexAdd | OpClass::VComplexMul => {
                f.simd && f.complex && self.vector_width > 1
            }
            v if v.is_vector() => f.simd && self.vector_width > 1,
            c if c.is_complex() => f.complex,
            _ => true,
        }
    }

    /// Cycles per issue of `op` on this target.
    pub fn cost(&self, op: OpClass) -> u32 {
        self.costs.cost(op)
    }

    /// The intrinsic function name the C backend emits for `op`
    /// (e.g. `__asip_vmac`).
    pub fn intrinsic_name(&self, op: OpClass) -> String {
        format!("{}_{}", self.intrinsic_prefix, op.mnemonic())
    }

    /// Serializes the spec to pretty JSON (the on-disk target format:
    /// adding a processor is a data change, not a code change).
    pub fn to_json(&self) -> String {
        let cost_fields: Vec<(String, Json)> = self
            .costs
            .costs
            .iter()
            .map(|(op, c)| (op.snake_name().to_string(), Json::Num(*c as f64)))
            .collect();
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("description".into(), Json::Str(self.description.clone())),
            ("vector_width".into(), Json::Num(self.vector_width as f64)),
            (
                "features".into(),
                Json::Obj(vec![
                    ("simd".into(), Json::Bool(self.features.simd)),
                    ("complex".into(), Json::Bool(self.features.complex)),
                    ("mac".into(), Json::Bool(self.features.mac)),
                ]),
            ),
            (
                "costs".into(),
                Json::Obj(vec![("costs".into(), Json::Obj(cost_fields))]),
            ),
            (
                "intrinsic_prefix".into(),
                Json::Str(self.intrinsic_prefix.clone()),
            ),
        ])
        .pretty()
    }

    /// Parses a spec from JSON. All fields are required; unknown cost keys
    /// are rejected so typos in spec files surface immediately.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed or missing field.
    pub fn from_json(text: &str) -> Result<IsaSpec, String> {
        let doc = json::parse(text)?;
        let str_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field `{key}`"))
        };
        let features = doc
            .get("features")
            .ok_or_else(|| "missing field `features`".to_string())?;
        match features {
            Json::Obj(fields) => {
                for (key, _) in fields {
                    if !matches!(key.as_str(), "simd" | "complex" | "mac") {
                        return Err(format!("unknown feature `{key}` in features"));
                    }
                }
            }
            _ => return Err("`features` must be an object".to_string()),
        }
        let flag = |key: &str| -> Result<bool, String> {
            features
                .get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("missing or non-bool field `features.{key}`"))
        };
        let cost_obj = doc
            .get("costs")
            .and_then(|c| c.get("costs"))
            .ok_or_else(|| "missing field `costs.costs`".to_string())?;
        let mut costs = BTreeMap::new();
        match cost_obj {
            Json::Obj(fields) => {
                for (key, val) in fields {
                    let op = OpClass::from_snake(key)
                        .ok_or_else(|| format!("unknown op class `{key}` in costs"))?;
                    // A cycle cost must be a positive integer: zero,
                    // negative, fractional or non-finite costs would turn
                    // into nonsense totals deep inside the simulator, so
                    // they are rejected here, naming the op.
                    let cycles = val
                        .as_u64()
                        .filter(|c| (1..=u32::MAX as u64).contains(c))
                        .ok_or_else(|| {
                            format!("cost for op `{key}` must be a positive integer cycle count")
                        })?;
                    costs.insert(op, cycles as u32);
                }
            }
            _ => return Err("`costs.costs` must be an object".to_string()),
        }
        let spec = IsaSpec {
            name: str_field("name")?,
            description: str_field("description")?,
            vector_width: doc
                .get("vector_width")
                .and_then(Json::as_u64)
                .ok_or_else(|| "missing or non-integer field `vector_width`".to_string())?
                as usize,
            features: Features {
                simd: flag("simd")?,
                complex: flag("complex")?,
                mac: flag("mac")?,
            },
            costs: CostModel { costs },
            intrinsic_prefix: str_field("intrinsic_prefix")?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Validates internal consistency (width vs. features).
    ///
    /// # Errors
    ///
    /// Describes the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.vector_width == 0 {
            return Err("vector_width must be at least 1".to_string());
        }
        if self.features.simd && self.vector_width < 2 {
            return Err(
                "simd feature requires vector_width >= 2 (normalize() canonicalizes this)"
                    .to_string(),
            );
        }
        if !self.features.simd && self.vector_width > 1 {
            return Err(format!(
                "vector_width {} without the simd feature is inconsistent \
                 (normalize() canonicalizes this)",
                self.vector_width
            ));
        }
        if self.name.is_empty() {
            return Err("target name must not be empty".to_string());
        }
        if self.intrinsic_prefix.is_empty()
            || !self
                .intrinsic_prefix
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            return Err("intrinsic_prefix must be a C identifier fragment".to_string());
        }
        Ok(())
    }
}

impl fmt::Display for IsaSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (W={}, simd={}, complex={}, mac={})",
            self.name,
            self.vector_width,
            self.features.simd,
            self.features.complex,
            self.features.mac
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsp16_supports_everything_except_unpriced_fused() {
        let t = IsaSpec::dsp16();
        for &op in OpClass::ALL {
            if op == OpClass::Fused {
                // No discovered instruction priced in the stock target.
                assert!(!t.supports(op), "dsp16 has no fused unit by default");
            } else {
                assert!(t.supports(op), "dsp16 should support {op}");
            }
        }
        assert!(t.validate().is_ok());
    }

    #[test]
    fn fused_support_tracks_explicit_cost_entry() {
        let mut t = IsaSpec::dsp16();
        assert!(!t.costs.has_cost(OpClass::Fused));
        t.costs.set_cost(OpClass::Fused, 2);
        assert!(t.supports(OpClass::Fused));
        assert_eq!(t.cost(OpClass::Fused), 2);
        assert_eq!(t.costs.entry(OpClass::Fused), Some(2));
        // The entry survives the JSON round trip (target files can pin a
        // discovered instruction).
        let back = IsaSpec::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back);
        assert!(back.supports(OpClass::Fused));
        t.costs.clear_cost(OpClass::Fused);
        assert!(!t.supports(OpClass::Fused));
        // Even a scalar baseline core gains the unit when priced: fused
        // availability is orthogonal to the simd/complex/mac families.
        let mut s = IsaSpec::scalar_baseline();
        s.costs.set_cost(OpClass::Fused, 1);
        assert!(s.supports(OpClass::Fused));
        assert!(s.validate().is_ok());
    }

    #[test]
    fn scalar_baseline_supports_only_baseline() {
        let t = IsaSpec::scalar_baseline();
        for &op in OpClass::ALL {
            assert_eq!(t.supports(op), op.is_baseline(), "{op}");
        }
        assert!(t.validate().is_ok());
    }

    #[test]
    fn feature_gating() {
        let t = IsaSpec::with_features(Features {
            simd: true,
            complex: false,
            mac: false,
        });
        assert!(t.supports(OpClass::VectorMul));
        assert!(!t.supports(OpClass::VectorMac));
        assert!(!t.supports(OpClass::ComplexMul));
        assert!(!t.supports(OpClass::VComplexMul));

        let t = IsaSpec::with_features(Features {
            simd: false,
            complex: true,
            mac: true,
        });
        assert!(t.supports(OpClass::ComplexMul));
        assert!(t.supports(OpClass::ComplexMac));
        assert!(!t.supports(OpClass::VectorMul));
        assert!(!t.supports(OpClass::VComplexMac));
    }

    #[test]
    fn width_one_disables_simd() {
        let t = IsaSpec::with_width(1);
        assert!(!t.supports(OpClass::VectorMul));
        assert!(t.validate().is_ok());
    }

    #[test]
    fn json_round_trip() {
        let t = IsaSpec::dsp16();
        let json = t.to_json();
        let back = IsaSpec::from_json(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn json_is_human_editable() {
        let json = IsaSpec::dsp16().to_json();
        assert!(json.contains("\"vector_width\": 8"));
        assert!(json.contains("\"complex_mul\""));
    }

    #[test]
    fn malformed_json_errors() {
        assert!(IsaSpec::from_json("{not json").is_err());
    }

    #[test]
    fn unknown_feature_is_rejected_by_name() {
        let json = IsaSpec::dsp16()
            .to_json()
            .replace("\"mac\": true", "\"mac\": true,\n    \"fma\": true");
        let err = IsaSpec::from_json(&json).unwrap_err();
        assert_eq!(err, "unknown feature `fma` in features");
    }

    #[test]
    fn duplicate_cost_entry_is_rejected_by_name() {
        let json = IsaSpec::dsp16().to_json();
        assert!(json.contains("\"scalar_mul\": 2"), "fixture drifted");
        let json = json.replace(
            "\"scalar_mul\": 2",
            "\"scalar_mul\": 2,\n      \"scalar_mul\": 3",
        );
        let err = IsaSpec::from_json(&json).unwrap_err();
        assert!(
            err.contains("duplicate key `scalar_mul`"),
            "error must name the duplicated key: {err}"
        );
    }

    #[test]
    fn duplicate_feature_entry_is_rejected() {
        let json = IsaSpec::dsp16()
            .to_json()
            .replace("\"mac\": true", "\"mac\": true,\n    \"mac\": true");
        assert!(IsaSpec::from_json(&json)
            .unwrap_err()
            .contains("duplicate key `mac`"));
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut t = IsaSpec::dsp16();
        t.vector_width = 0;
        assert!(t.validate().is_err());

        let mut t = IsaSpec::dsp16();
        t.vector_width = 1; // but simd still claimed
        assert!(t.validate().is_err());

        let mut t = IsaSpec::dsp16();
        t.intrinsic_prefix = "bad prefix!".to_string();
        assert!(t.validate().is_err());
    }

    #[test]
    fn intrinsic_names() {
        let t = IsaSpec::dsp16();
        assert_eq!(t.intrinsic_name(OpClass::VectorMac), "__asip_vmac");
        assert_eq!(t.intrinsic_name(OpClass::ComplexMul), "__asip_cmul");
    }

    #[test]
    fn cost_override() {
        let mut t = IsaSpec::dsp16();
        assert_eq!(t.cost(OpClass::ScalarDiv), 8);
        t.costs.set_cost(OpClass::ScalarDiv, 16);
        assert_eq!(t.cost(OpClass::ScalarDiv), 16);
    }

    #[test]
    fn variants_describe_their_own_width_and_features() {
        assert_eq!(
            IsaSpec::with_width(4).description,
            "dsp16 variant: 4 lanes, simd=true, complex=true, mac=true"
        );
        let none = IsaSpec::with_features(Features::none());
        assert_eq!(
            none.description,
            "dsp16 variant: 1 lanes, simd=false, complex=false, mac=false"
        );
    }

    #[test]
    fn normalize_canonicalizes_width_feature_interaction() {
        // simd claimed on a 1-lane datapath: the feature goes away.
        let mut t = IsaSpec::dsp16();
        t.vector_width = 1;
        t.normalize();
        assert!(!t.features.simd);
        assert_eq!(t.vector_width, 1);
        assert!(t.validate().is_ok());

        // a vector width without the simd feature: the width collapses.
        let mut t = IsaSpec::dsp16();
        t.features.simd = false;
        t.normalize();
        assert_eq!(t.vector_width, 1);
        assert!(t.validate().is_ok());

        // width 0 is lifted to the scalar form.
        let mut t = IsaSpec::dsp16();
        t.vector_width = 0;
        t.normalize();
        assert_eq!(t.vector_width, 1);
        assert!(!t.features.simd);
        assert!(t.validate().is_ok());

        assert!(IsaSpec::dsp16().is_normalized());
    }

    #[test]
    fn ablation_constructors_produce_consistent_specs() {
        // Regression: `with_features` used to keep vector_width 8 on
        // simd-less specs and `with_width(1)` kept the simd flag.
        for features in Features::subsets() {
            let t = IsaSpec::with_features(features);
            assert!(t.validate().is_ok(), "{}: {:?}", t.name, t.validate());
            if !features.simd {
                assert_eq!(t.vector_width, 1, "{}", t.name);
            }
        }
        for w in [1, 2, 8] {
            assert!(IsaSpec::with_width(w).validate().is_ok());
        }
    }

    #[test]
    fn feature_subsets_enumerate_all_combinations() {
        let subsets = Features::subsets();
        let mut seen = std::collections::HashSet::new();
        for f in subsets {
            assert!(seen.insert((f.simd, f.complex, f.mac)));
        }
        assert_eq!(seen.len(), 8);
        assert!(!Features::none().any());
        assert!(Features::all().any());
    }

    #[test]
    fn zero_cost_is_rejected_naming_the_op() {
        let json = IsaSpec::dsp16().to_json();
        assert!(json.contains("\"scalar_div\": 8"), "fixture drifted");
        let json = json.replace("\"scalar_div\": 8", "\"scalar_div\": 0");
        let err = IsaSpec::from_json(&json).unwrap_err();
        assert_eq!(
            err,
            "cost for op `scalar_div` must be a positive integer cycle count"
        );
    }

    #[test]
    fn fractional_and_negative_costs_are_rejected_naming_the_op() {
        for bad in ["2.5", "-3", "1e99"] {
            let json = IsaSpec::dsp16()
                .to_json()
                .replace("\"scalar_div\": 8", &format!("\"scalar_div\": {bad}"));
            let err = IsaSpec::from_json(&json).unwrap_err();
            assert!(err.contains("`scalar_div`"), "{bad}: {err}");
        }
    }

    #[test]
    fn inconsistent_json_spec_is_rejected() {
        // simd with a 1-lane datapath.
        let json = IsaSpec::dsp16()
            .to_json()
            .replace("\"vector_width\": 8", "\"vector_width\": 1");
        assert!(IsaSpec::from_json(&json)
            .unwrap_err()
            .contains("simd feature requires vector_width >= 2"));

        // a vector width on a spec that never claims simd.
        let json = IsaSpec::dsp16()
            .to_json()
            .replace("\"simd\": true", "\"simd\": false");
        assert!(IsaSpec::from_json(&json)
            .unwrap_err()
            .contains("without the simd feature"));
    }

    #[test]
    fn ablation_names_are_distinct() {
        let a = IsaSpec::with_features(Features::none());
        let b = IsaSpec::with_features(Features::all());
        let c = IsaSpec::with_features(Features {
            simd: true,
            complex: false,
            mac: false,
        });
        assert_ne!(a.name, b.name);
        assert_ne!(b.name, c.name);
    }

    #[test]
    fn builtins_resolve_by_name() {
        let names: Vec<String> = IsaSpec::builtins().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["dsp16", "scalar", "dsp16_w4", "dsp16_w16"]);
        for spec in IsaSpec::builtins() {
            assert!(spec.validate().is_ok(), "{}", spec.name);
            assert_eq!(IsaSpec::builtin(&spec.name), Some(spec));
        }
        assert_eq!(IsaSpec::builtin("dsp8"), None);
    }
}
