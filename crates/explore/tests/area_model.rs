//! Coverage for the area model: monotonicity properties over the whole
//! admissible coordinate space, a pinned-value check for the committed
//! `targets/area_model_default.json`, and exact agreement of
//! [`AreaModel::price`] with every area in the committed frontier.

use matic::Features;
use matic_explore::grid::{build_spec, enumerate, Candidate};
use matic_explore::{AreaModel, Exploration};

fn candidate(width: usize, features: Features, scale: f64) -> Candidate {
    Candidate {
        spec: build_spec(width, features, scale),
        width,
        features,
        cost_scale: scale,
    }
}

fn feature_count(f: Features) -> usize {
    f.simd as usize + f.complex as usize + f.mac as usize
}

/// Area is strictly monotone in SIMD width (for simd candidates) across
/// every feature subset and admissible cost scale.
#[test]
fn area_is_monotone_in_width() {
    let m = AreaModel::default();
    for features in Features::subsets() {
        if !features.simd {
            continue;
        }
        for &scale in &[0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 8.0] {
            let mut prev = None;
            for width in 2..=64 {
                let a = m.area(&candidate(width, features, scale));
                if let Some(p) = prev {
                    assert!(
                        a > p,
                        "area not monotone at w={width} {features:?} scale {scale}: {a} <= {p}"
                    );
                }
                prev = Some(a);
            }
        }
    }
}

/// Adding any feature family (at fixed width and scale) strictly
/// increases area; more generally area is monotone in the feature subset
/// partial order.
#[test]
fn area_is_monotone_in_feature_count() {
    let m = AreaModel::default();
    let subset_le = |a: Features, b: Features| {
        (!a.simd || b.simd) && (!a.complex || b.complex) && (!a.mac || b.mac)
    };
    for &scale in &[0.5, 1.0, 2.0] {
        for fa in Features::subsets() {
            for fb in Features::subsets() {
                if !subset_le(fa, fb) || fa == fb {
                    continue;
                }
                // Compare at a width both subsets can realize (a subset
                // gaining simd also gains lanes; it must still cost
                // strictly more than the narrower point).
                let width = if fa.simd { 8 } else { 1 };
                let wb = if fb.simd { 8 } else { width };
                let aa = m.area(&candidate(width, fa, scale));
                let ab = m.area(&candidate(wb, fb, scale));
                assert!(
                    ab > aa,
                    "feature superset not larger: {fa:?}@w{width} {aa} vs {fb:?}@w{wb} {ab} (scale {scale})"
                );
            }
        }
        // And within a fixed width, area grows with the subset size.
        for fa in Features::subsets() {
            for fb in Features::subsets() {
                if fa.simd && fb.simd && feature_count(fb) > feature_count(fa) && subset_le(fa, fb)
                {
                    assert!(
                        m.area(&candidate(8, fb, scale)) > m.area(&candidate(8, fa, scale)),
                        "{fa:?} -> {fb:?}"
                    );
                }
            }
        }
    }
}

/// The committed default model file stays in lockstep with the in-code
/// default, and prices the landmark grid points at their pinned values.
#[test]
fn committed_default_model_is_pinned() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../targets/area_model_default.json"
    );
    let text = std::fs::read_to_string(path).expect("committed area model file");
    let from_file = AreaModel::from_json(&text).expect("committed model parses");
    assert_eq!(
        from_file,
        AreaModel::default(),
        "targets/area_model_default.json drifted from AreaModel::default()"
    );

    let m = AreaModel::default();
    let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
    // Scalar core: exactly base.
    assert!(close(m.area(&candidate(1, Features::none(), 1.0)), 1.0));
    // The paper-like dsp16 point: 1 + 0.08·7 + 0.35 + 0.30 + 0.20 = 2.41.
    assert!(close(m.area(&candidate(8, Features::all(), 1.0)), 2.41));
    // The committed frontier's workhorse: w32 simd+mac
    // = 1 + (0.08·31 + 0.35 + 0.20) = 4.03.
    let simd_mac = Features {
        simd: true,
        complex: false,
        mac: true,
    };
    assert!(close(m.area(&candidate(32, simd_mac, 1.0)), 4.03));
    // Slower custom units divide accelerator area by 1 + 0.5·(s−1).
    assert!(close(
        m.area(&candidate(8, Features::all(), 2.0)),
        1.0 + 1.41 / 1.5
    ));
}

/// Pricing a grid candidate's spec reproduces the committed frontier's
/// area for it to the last bit, on all 70 points of the default grid —
/// so discovery, which prices off-grid specs with the same function,
/// compares against the committed areas exactly.
#[test]
fn price_matches_every_committed_area_exactly() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPLORE_frontier.json");
    let text = std::fs::read_to_string(path).expect("committed frontier file");
    let doc = Exploration::from_json(&text).expect("committed frontier reads");
    let candidates = enumerate(&doc.grid).unwrap();
    assert_eq!(candidates.len(), 70);
    for (i, cand) in candidates.iter().enumerate() {
        let price = doc.area.price(&cand.spec, None);
        assert_eq!(
            price.to_bits(),
            doc.area.area(cand).to_bits(),
            "{}",
            cand.name()
        );
        assert_eq!(
            price.to_bits(),
            doc.suite[i].area.to_bits(),
            "{}: price {price} vs committed suite area {}",
            cand.name(),
            doc.suite[i].area
        );
        for b in &doc.benches {
            assert_eq!(
                price.to_bits(),
                b.points[i].area.to_bits(),
                "{}/{}: price {price} vs committed {}",
                b.bench,
                cand.name(),
                b.points[i].area
            );
        }
    }
}
