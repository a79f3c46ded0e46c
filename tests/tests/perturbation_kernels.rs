//! The two-pass perturbation kernels against the per-value bodies they
//! replaced.
//!
//! The Piecewise, Square Wave and Duchi mechanisms perturb from raw
//! generator words (`hdldp_mechanisms::draw`), and their `perturb_values`
//! draws a chunk's words before transforming it. The references below are
//! the per-value bodies those kernels replaced, drawing with the vendored
//! `gen_bool` and `gen_range` straight from the generator. Every mechanism
//! built on the kernels (native, rescaled, and the Hybrid mixture of two of
//! them) must match its reference bit for bit, in every value and in the
//! final generator state, through both `perturb` and `perturb_values`.

use hdldp_mechanisms::{
    DuchiMechanism, HybridMechanism, Mechanism, PiecewiseMechanism, Rescaled, SquareWaveMechanism,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The mechanisms' input clamp: NaN maps to the domain midpoint.
fn clamp_to_domain(t: f64, lo: f64, hi: f64) -> f64 {
    if t.is_nan() {
        0.5 * (lo + hi)
    } else {
        t.clamp(lo, hi)
    }
}

fn reference_piecewise(m: &PiecewiseMechanism, t: f64, rng: &mut StdRng) -> f64 {
    let t = clamp_to_domain(t, -1.0, 1.0);
    let q = m.output_bound();
    let exp_half = (m.epsilon() / 2.0).exp();
    let l = (q + 1.0) / 2.0 * t - (q - 1.0) / 2.0;
    let r = l + q - 1.0;
    if rng.gen_bool(exp_half / (exp_half + 1.0)) {
        rng.gen_range(l..=r)
    } else {
        let left_len = l - (-q);
        let right_len = q - r;
        let total = left_len + right_len;
        if total <= 0.0 {
            return rng.gen_range(l..=r);
        }
        let u: f64 = rng.gen_range(0.0..total);
        if u < left_len {
            -q + u
        } else {
            r + (u - left_len)
        }
    }
}

fn reference_square_wave(m: &SquareWaveMechanism, t: f64, rng: &mut StdRng) -> f64 {
    let t = clamp_to_domain(t, 0.0, 1.0);
    let b = m.b();
    if rng.gen_bool(m.prob_in_band().clamp(0.0, 1.0)) {
        rng.gen_range((t - b)..=(t + b))
    } else {
        let u: f64 = rng.gen_range(0.0..1.0);
        if u < t {
            -b + u
        } else {
            b + u
        }
    }
}

fn reference_duchi(m: &DuchiMechanism, t: f64, rng: &mut StdRng) -> f64 {
    let t = clamp_to_domain(t, -1.0, 1.0);
    let e = m.epsilon().exp();
    let p = 0.5 + t * (e - 1.0) / (2.0 * (e + 1.0));
    if rng.gen_bool(p.clamp(0.0, 1.0)) {
        m.output_magnitude()
    } else {
        -m.output_magnitude()
    }
}

fn reference_hybrid(m: &HybridMechanism, t: f64, rng: &mut StdRng) -> f64 {
    if m.alpha() > 0.0 && rng.gen_bool(m.alpha()) {
        reference_piecewise(m.piecewise(), t, rng)
    } else {
        reference_duchi(m.duchi(), t, rng)
    }
}

/// The `Rescaled` per-value body: clamp onto `[lo, hi]`, map affinely into
/// the inner mechanism's native domain, perturb, map back.
fn reference_rescaled<M: Mechanism>(
    wrapped: &Rescaled<M>,
    inner: impl Fn(f64, &mut StdRng) -> f64,
    t: f64,
    rng: &mut StdRng,
) -> f64 {
    let (lo, hi) = wrapped.input_domain();
    let (native_lo, native_hi) = wrapped.inner().input_domain();
    let scale = (hi - lo) / (native_hi - native_lo);
    let u = native_lo + (t.clamp(lo, hi) - lo) / scale;
    lo + (inner(u, rng) - native_lo) * scale
}

type Reference = Box<dyn Fn(f64, &mut StdRng) -> f64>;

/// Every mechanism built on the kernels at budget `epsilon`, each with its
/// reference; a mechanism whose constructor rejects the budget is left out.
fn cases(epsilon: f64) -> Vec<(Box<dyn Mechanism>, Reference)> {
    let mut cases: Vec<(Box<dyn Mechanism>, Reference)> = Vec::new();
    if let Ok(pm) = PiecewiseMechanism::new(epsilon) {
        let m = pm.clone();
        cases.push((
            Box::new(pm),
            Box::new(move |t, rng| reference_piecewise(&m, t, rng)),
        ));
    }
    if let Ok(sw) = SquareWaveMechanism::new(epsilon) {
        let m = sw.clone();
        cases.push((
            Box::new(sw.clone()),
            Box::new(move |t, rng| reference_square_wave(&m, t, rng)),
        ));
        let wrapped = Rescaled::new(sw, -1.0, 1.0).unwrap();
        let w = wrapped.clone();
        cases.push((
            Box::new(wrapped),
            Box::new(move |t, rng| {
                reference_rescaled(
                    &w,
                    |u, rng| reference_square_wave(w.inner(), u, rng),
                    t,
                    rng,
                )
            }),
        ));
    }
    if let Ok(duchi) = DuchiMechanism::new(epsilon) {
        let m = duchi.clone();
        cases.push((
            Box::new(duchi.clone()),
            Box::new(move |t, rng| reference_duchi(&m, t, rng)),
        ));
        let wrapped = Rescaled::new(duchi, 0.0, 1.0).unwrap();
        let w = wrapped.clone();
        cases.push((
            Box::new(wrapped),
            Box::new(move |t, rng| {
                reference_rescaled(&w, |u, rng| reference_duchi(w.inner(), u, rng), t, rng)
            }),
        ));
    }
    if let Ok(hm) = HybridMechanism::new(epsilon) {
        let m = hm.clone();
        cases.push((
            Box::new(hm),
            Box::new(move |t, rng| reference_hybrid(&m, t, rng)),
        ));
    }
    cases
}

/// The largest budget `accepts` takes, by bisection on the bit patterns of
/// positive floats (which order like the floats) between an accepted and a
/// rejected budget.
fn largest_accepted(accepts: impl Fn(f64) -> bool, accepted: f64, rejected: f64) -> f64 {
    let (mut accepted, mut rejected) = (accepted.to_bits(), rejected.to_bits());
    assert!(accepts(f64::from_bits(accepted)) && !accepts(f64::from_bits(rejected)));
    while rejected - accepted > 1 {
        let mid = accepted + (rejected - accepted) / 2;
        if accepts(f64::from_bits(mid)) {
            accepted = mid;
        } else {
            rejected = mid;
        }
    }
    f64::from_bits(accepted)
}

/// The largest budget the Piecewise (and so the Hybrid) constructor takes:
/// Q rounds to 1 once e^{ε/2} passes ~2⁵³, from ε ≈ 2·53·ln 2.
fn largest_piecewise_epsilon() -> f64 {
    largest_accepted(|e| PiecewiseMechanism::new(e).is_ok(), 73.0, 74.0)
}

#[test]
fn piecewise_budgets_that_collapse_the_band_are_rejected() {
    let largest = largest_piecewise_epsilon();
    assert!((largest - 2.0 * 53.0 * std::f64::consts::LN_2).abs() < 0.01);
    for eps in [largest.next_up(), 73.5, 74.0, 80.0, 200.0, 1000.0] {
        assert!(PiecewiseMechanism::new(eps).is_err(), "eps = {eps}");
        assert!(HybridMechanism::new(eps).is_err(), "eps = {eps}");
    }

    // At the largest accepted budget, inputs with full mantissas, tiny
    // inputs and inputs next to ±1 neither panic nor leave [-Q, Q].
    let pm = PiecewiseMechanism::new(largest).unwrap();
    let hm = HybridMechanism::new(largest).unwrap();
    let q = pm.output_bound();
    assert!(q > 1.0);
    let mut inputs: Vec<f64> = (0..10_000).map(|k| (k as f64).sin()).collect();
    for tiny in [5e-324, 1e-300, 1e-17, 2.0f64.powi(-53)] {
        inputs.extend([tiny, -tiny]);
    }
    for edge in [1.0f64, 1.0f64.next_down(), 1.0 - 1e-12, 1.0 - 1e-9] {
        inputs.extend([edge, -edge]);
    }
    for mechanism in [&pm as &dyn Mechanism, &hm] {
        let mut rng = StdRng::seed_from_u64(73);
        let mut report = inputs.clone();
        mechanism.perturb_values(&mut report, &mut rng);
        let values = inputs
            .iter()
            .map(|&t| mechanism.perturb(t, &mut rng))
            .chain(report.iter().copied());
        for (k, out) in values.enumerate() {
            assert!(
                (-q..=q).contains(&out),
                "{}: output {out} at #{k} outside [-{q}, {q}]",
                mechanism.name()
            );
        }
    }
}

/// Budgets from 1e-6 up to each mechanism's largest accepted one, including
/// Hybrid's mixing threshold and the per-dimension budgets the figure sweeps
/// run.
fn epsilons() -> Vec<f64> {
    let mut epsilons = vec![
        1e-6, 1e-4, 1e-3, 0.004, 0.016, 0.1, 0.5, 0.61, 0.62, 1.0, 2.0, 4.0, 10.0, 30.0, 70.0,
        73.0, 100.0, 354.0, 500.0, 700.0,
    ];
    epsilons.push(largest_piecewise_epsilon());
    epsilons.push(largest_accepted(
        |e| SquareWaveMechanism::new(e).is_ok(),
        700.0,
        710.0,
    ));
    epsilons.push(largest_accepted(
        |e| DuchiMechanism::new(e).is_ok(),
        700.0,
        710.0,
    ));
    epsilons
}

/// Inputs for a mechanism on `[lo, hi]`: NaN, the infinities, both zeros,
/// ±1, out-of-domain and subnormal values, both ends of the domain, and
/// full-mantissa values spread over it.
fn inputs(lo: f64, hi: f64) -> Vec<f64> {
    let mut inputs = vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        1.0,
        -1.0,
        1.5,
        -1.5,
        -3.0,
        1e300,
        5e-324,
        -5e-324,
        lo,
        hi,
        1.0f64.next_down(),
    ];
    inputs.extend((0..64).map(|k| lo + (hi - lo) * (0.5 + 0.5 * (k as f64).sin())));
    inputs
}

/// Report lengths: empty, one entry, and both sides of one and two chunks of
/// the kernels' 32 entries, plus the figure shape and a long report.
const LENGTHS: [usize; 11] = [0, 1, 2, 31, 32, 33, 63, 64, 65, 100, 257];

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn kernels_match_the_per_value_references_bit_for_bit() {
    let mut checked = 0;
    for epsilon in epsilons() {
        for (mechanism, reference) in cases(epsilon) {
            let (lo, hi) = mechanism.input_domain();
            let inputs = inputs(lo, hi);
            for seed in 0..4u64 {
                for len in LENGTHS {
                    let report: Vec<f64> = (0..len)
                        .map(|k| inputs[(k * 7 + seed as usize) % inputs.len()])
                        .collect();
                    let what = format!(
                        "{} [{lo}, {hi}] eps={epsilon} seed={seed} len={len}",
                        mechanism.name()
                    );

                    let mut reference_rng = StdRng::seed_from_u64(seed);
                    let expected: Vec<f64> = report
                        .iter()
                        .map(|&t| reference(t, &mut reference_rng))
                        .collect();

                    let mut rng = StdRng::seed_from_u64(seed);
                    let per_value: Vec<f64> = report
                        .iter()
                        .map(|&t| mechanism.perturb(t, &mut rng))
                        .collect();
                    assert_eq!(bits(&per_value), bits(&expected), "perturb: {what}");
                    assert_eq!(rng, reference_rng, "perturb, final state: {what}");

                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut values = report.clone();
                    mechanism.perturb_values(&mut values, &mut rng);
                    assert_eq!(values.len(), len, "{what}");
                    assert_eq!(bits(&values), bits(&expected), "perturb_values: {what}");
                    assert_eq!(rng, reference_rng, "perturb_values, final state: {what}");
                    checked += 1;
                }
            }
        }
    }
    // Six mechanisms over most of the grid: a constructor that started
    // rejecting budgets would shrink this count.
    assert!(
        checked >= 4 * LENGTHS.len() * 120,
        "checked {checked} reports"
    );
}
