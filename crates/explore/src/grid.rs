//! Candidate-ISA enumeration: the design-space grid.
//!
//! A candidate is built from the `dsp16` description by applying a SIMD
//! width, a custom-instruction feature subset, and a cost-table scaling
//! (a slower-but-smaller or faster-but-larger implementation of the
//! custom units). Candidates are [`IsaSpec::normalize`]d and deduplicated
//! — e.g. every `simd = false` point collapses to width 1, so widening a
//! simd-less candidate never multiplies the grid.

use matic::{Features, IsaSpec, OpClass};

/// The candidate space: the cross product of widths × feature subsets ×
/// cost scalings, before normalization/deduplication.
#[derive(Debug, Clone, PartialEq)]
pub struct GridConfig {
    /// SIMD lane counts to try (1 = scalar datapath).
    pub widths: Vec<usize>,
    /// Custom-instruction family subsets to try.
    pub feature_sets: Vec<Features>,
    /// Cycle-cost multipliers applied to the custom (non-baseline)
    /// instruction classes: > 1 models a slower-but-smaller
    /// implementation of the custom units, < 1 a faster-but-larger one.
    pub cost_scales: Vec<f64>,
}

impl Default for GridConfig {
    /// The default grid: widths {1, 2, 4, 8, 16, 32} × all 8 feature
    /// subsets × cost scalings {1, 1.5, 2} — 70 distinct candidates
    /// after normalization.
    fn default() -> GridConfig {
        GridConfig {
            widths: vec![1, 2, 4, 8, 16, 32],
            feature_sets: Features::subsets().to_vec(),
            cost_scales: vec![1.0, 1.5, 2.0],
        }
    }
}

impl GridConfig {
    /// A small grid for CI smoke runs: widths {1, 8}, all feature
    /// subsets, no cost scaling — 8 candidates.
    pub fn quick() -> GridConfig {
        GridConfig {
            widths: vec![1, 8],
            feature_sets: Features::subsets().to_vec(),
            cost_scales: vec![1.0],
        }
    }

    /// Checks the grid axes for nonsense values.
    ///
    /// # Errors
    ///
    /// Names the offending axis value.
    pub fn validate(&self) -> Result<(), String> {
        if self.widths.is_empty() || self.feature_sets.is_empty() || self.cost_scales.is_empty() {
            return Err("grid axes must be non-empty".to_string());
        }
        for &w in &self.widths {
            if !(1..=1024).contains(&w) {
                return Err(format!("grid width {w} outside 1..=1024"));
            }
        }
        for &s in &self.cost_scales {
            if !s.is_finite() || !(0.25..=8.0).contains(&s) {
                return Err(format!("cost scale {s} outside 0.25..=8"));
            }
        }
        Ok(())
    }
}

/// One point of the design space: a normalized, validated [`IsaSpec`]
/// plus the grid coordinates it was built from.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The normalized spec (named after its grid coordinates).
    pub spec: IsaSpec,
    /// Normalized SIMD width (1 whenever `features.simd` is off).
    pub width: usize,
    /// Normalized feature subset.
    pub features: Features,
    /// Cost-table multiplier applied to the custom instruction classes
    /// (canonically 1 when no custom family is enabled — there is
    /// nothing to scale).
    pub cost_scale: f64,
}

impl Candidate {
    /// The candidate's stable display name (also `spec.name`).
    pub fn name(&self) -> &str {
        &self.spec.name
    }
}

/// Formats a cost scale for candidate names: `1.5` → `1p5`, `2` → `2`.
fn scale_tag(scale: f64) -> String {
    let s = format!("{scale}");
    s.replace('.', "p")
}

/// The stable candidate name for a set of grid coordinates.
pub fn candidate_name(width: usize, f: Features, scale: f64) -> String {
    let mut name = if f.simd {
        format!("w{width}")
    } else {
        "scalar".to_string()
    };
    if f.simd {
        name.push_str("_simd");
    }
    if f.complex {
        name.push_str("_cplx");
    }
    if f.mac {
        name.push_str("_mac");
    }
    if scale != 1.0 {
        name.push_str(&format!("_x{}", scale_tag(scale)));
    }
    name
}

/// Builds the normalized candidate spec for one set of grid coordinates.
/// Costs start from the `dsp16` DSP-like table; the custom
/// (non-baseline) classes are scaled by `scale` (rounded up, floored at
/// one cycle).
pub fn build_spec(width: usize, features: Features, scale: f64) -> IsaSpec {
    let mut spec = IsaSpec::dsp16();
    spec.vector_width = width.max(1);
    spec.features = features;
    spec.normalize();
    if scale != 1.0 {
        for &op in OpClass::ALL {
            // Scale only classes the default table prices: the `fused`
            // class has no stock entry (pricing one would bolt a phantom
            // discovered instruction onto every scaled grid point).
            if !op.is_baseline() && spec.costs.has_cost(op) {
                let scaled = (spec.cost(op) as f64 * scale).ceil().max(1.0) as u32;
                spec.costs.set_cost(op, scaled);
            }
        }
    }
    spec.name = candidate_name(spec.vector_width, spec.features, scale);
    spec.description = format!(
        "design-space candidate: {} lanes, simd={}, complex={}, mac={}, cost scale {}",
        spec.vector_width, spec.features.simd, spec.features.complex, spec.features.mac, scale
    );
    spec
}

/// Enumerates the deduplicated candidate grid.
///
/// Normalization collapses equivalent coordinates (any `simd = false`
/// point has width 1; a scaling is meaningless without a custom family
/// to scale), so the returned candidates have distinct specs and
/// distinct names.
///
/// # Errors
///
/// Propagates [`GridConfig::validate`] failures and internal-consistency
/// violations (every produced spec must pass [`IsaSpec::validate`]).
pub fn enumerate(cfg: &GridConfig) -> Result<Vec<Candidate>, String> {
    cfg.validate()?;
    let mut out: Vec<Candidate> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for &scale in &cfg.cost_scales {
        for &features in &cfg.feature_sets {
            for &width in &cfg.widths {
                // Normalize the coordinates first so deduplication sees
                // the canonical form.
                let mut probe = IsaSpec::dsp16();
                probe.vector_width = width;
                probe.features = features;
                probe.normalize();
                let (width, features) = (probe.vector_width, probe.features);
                let scale = if features.any() { scale } else { 1.0 };
                let key = (
                    width,
                    features.simd,
                    features.complex,
                    features.mac,
                    scale.to_bits(),
                );
                if !seen.insert(key) {
                    continue;
                }
                let spec = build_spec(width, features, scale);
                spec.validate()
                    .map_err(|e| format!("candidate `{}` invalid: {e}", spec.name))?;
                out.push(Candidate {
                    width,
                    features,
                    cost_scale: scale,
                    spec,
                });
            }
        }
    }
    Ok(out)
}

/// Each candidate's machine, as an index into `candidates`: the first
/// candidate in grid order with the same width and features. Candidates
/// that share a machine differ only in their cost table, which changes
/// what the simulator charges but not what it runs, so one simulation
/// of the machine prices them all
/// ([`matic::CycleReport::repriced`]). [`enumerate`] puts the cost scale
/// outermost, so a machine is its first-listed scale's candidate.
pub fn machine_of(candidates: &[Candidate]) -> Vec<usize> {
    candidates
        .iter()
        .map(|c| {
            candidates
                .iter()
                .position(|m| (m.width, m.features) == (c.width, c.features))
                .expect("a candidate matches itself")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_size_and_uniqueness() {
        let cands = enumerate(&GridConfig::default()).unwrap();
        // 4 simd subsets × 5 widths × 3 scales = 60, plus width-1
        // subsets: {cplx, mac, cplx+mac} × 3 scales = 9, plus the pure
        // scalar point (scaling collapses to 1) = 70.
        assert_eq!(cands.len(), 70);
        let names: std::collections::BTreeSet<_> = cands.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), cands.len(), "names must be unique");
        for c in &cands {
            assert!(c.spec.validate().is_ok(), "{}", c.name());
            assert!(c.spec.is_normalized(), "{}", c.name());
        }
    }

    /// The number of distinct machines among the candidates.
    fn machines(cands: &[Candidate]) -> usize {
        let of: std::collections::BTreeSet<usize> = machine_of(cands).into_iter().collect();
        of.len()
    }

    #[test]
    fn candidates_group_into_machines() {
        // 4 simd subsets × 5 widths + 3 width-1 custom subsets + scalar.
        let cands = enumerate(&GridConfig::default()).unwrap();
        assert_eq!((cands.len(), machines(&cands)), (70, 24));
        for (c, &m) in cands.iter().zip(&machine_of(&cands)) {
            let m = &cands[m];
            assert_eq!((m.width, m.features), (c.width, c.features));
            assert_eq!(m.cost_scale, 1.0, "{}", c.name());
        }
        // One cost scale: every candidate is its own machine.
        let cands = enumerate(&GridConfig::quick()).unwrap();
        assert_eq!((cands.len(), machines(&cands)), (8, 8));
    }

    #[test]
    fn quick_grid_is_small_but_covers_features() {
        let cands = enumerate(&GridConfig::quick()).unwrap();
        assert_eq!(cands.len(), 8);
        assert!(cands.iter().any(|c| !c.features.any()));
        assert!(cands.iter().any(|c| c.features.simd && c.width == 8));
    }

    #[test]
    fn simd_less_widths_collapse() {
        let cfg = GridConfig {
            widths: vec![1, 8, 32],
            feature_sets: vec![Features::none()],
            cost_scales: vec![1.0, 2.0],
        };
        let cands = enumerate(&cfg).unwrap();
        assert_eq!(cands.len(), 1, "all coordinates collapse to `scalar`");
        assert_eq!(cands[0].name(), "scalar");
        assert_eq!(cands[0].width, 1);
    }

    #[test]
    fn cost_scaling_scales_custom_classes_only() {
        let spec = build_spec(8, Features::all(), 2.0);
        let base = IsaSpec::dsp16();
        for &op in OpClass::ALL {
            if op.is_baseline() {
                assert_eq!(spec.cost(op), base.cost(op), "{op}");
            } else if base.costs.has_cost(op) {
                assert_eq!(spec.cost(op), base.cost(op) * 2, "{op}");
            } else {
                // Unpriced classes (the discovered-instruction slot) must
                // stay unpriced: scaling never invents a fused unit.
                assert!(!spec.costs.has_cost(op), "{op}");
            }
        }
        // Fractional scales round up and never hit zero.
        let spec = build_spec(8, Features::all(), 0.25);
        assert!(OpClass::ALL
            .iter()
            .all(|&op| op.is_baseline() || spec.cost(op) >= 1));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(candidate_name(8, Features::all(), 1.0), "w8_simd_cplx_mac");
        assert_eq!(
            candidate_name(4, Features::all(), 1.5),
            "w4_simd_cplx_mac_x1p5"
        );
        assert_eq!(candidate_name(1, Features::none(), 1.0), "scalar");
        let cplx_only = Features {
            simd: false,
            complex: true,
            mac: false,
        };
        assert_eq!(candidate_name(1, cplx_only, 2.0), "scalar_cplx_x2");
    }

    #[test]
    fn bad_axes_are_rejected() {
        let cfg = GridConfig {
            widths: vec![0],
            ..GridConfig::default()
        };
        assert!(enumerate(&cfg).is_err());
        let cfg = GridConfig {
            cost_scales: vec![f64::NAN],
            ..GridConfig::default()
        };
        assert!(enumerate(&cfg).is_err());
        let mut cfg = GridConfig::default();
        cfg.cost_scales.clear();
        assert!(enumerate(&cfg).is_err());
    }
}
