//! Property-based tests: the fixed-width types must agree with wide
//! integer arithmetic reduced modulo the width, and with each other.
//! Runs on the in-repo `scflow-testkit` property runner
//! (`SCFLOW_PROPTEST_CASES`/`SCFLOW_PROPTEST_SEED` to override).

use scflow_hwtypes::{bits_for, mask, sign_extend, Bv, Logic, LogicVec, SFixed, SInt, UInt};
use scflow_testkit::prop::{bools, check, floats, ints};
use scflow_testkit::{prop_assert, prop_assert_eq};

fn widths() -> scflow_testkit::prop::IntRange<u32> {
    ints(1u32..=64)
}

fn any_u64() -> scflow_testkit::prop::IntRange<u64> {
    ints(0u64..=u64::MAX)
}

fn any_i64() -> scflow_testkit::prop::IntRange<i64> {
    ints(i64::MIN..=i64::MAX)
}

#[test]
fn bv_add_matches_modular_arithmetic() {
    check(
        "bv add mod 2^w",
        &(any_u64(), any_u64(), widths()),
        |&(a, b, w)| {
            let x = Bv::new(a, w);
            let y = Bv::new(b, w);
            let expect = (x.as_u64().wrapping_add(y.as_u64())) & mask(w);
            prop_assert_eq!(x.add(y).as_u64(), expect);
            Ok(())
        },
    );
}

#[test]
fn bv_sub_is_add_of_negation() {
    check(
        "bv sub = add neg",
        &(any_u64(), any_u64(), widths()),
        |&(a, b, w)| {
            let x = Bv::new(a, w);
            let y = Bv::new(b, w);
            prop_assert_eq!(x.sub(y), x.add(y.neg()));
            Ok(())
        },
    );
}

#[test]
fn bv_mul_matches_modular_arithmetic() {
    check(
        "bv mul mod 2^w",
        &(any_u64(), any_u64(), widths()),
        |&(a, b, w)| {
            let x = Bv::new(a, w);
            let y = Bv::new(b, w);
            let expect = x.as_u64().wrapping_mul(y.as_u64()) & mask(w);
            prop_assert_eq!(x.mul(y).as_u64(), expect);
            Ok(())
        },
    );
}

#[test]
fn bv_signed_and_unsigned_mul_agree_on_low_bits() {
    // The property the synthesiser's shared multiplier relies on.
    check(
        "mul vs mul_signed low bits",
        &(any_u64(), any_u64(), widths()),
        |&(a, b, w)| {
            let x = Bv::new(a, w);
            let y = Bv::new(b, w);
            prop_assert_eq!(x.mul(y).as_u64(), x.mul_signed(y).as_u64());
            Ok(())
        },
    );
}

#[test]
fn bv_signed_view_roundtrips() {
    check(
        "signed view roundtrip",
        &(any_u64(), widths()),
        |&(a, w)| {
            let x = Bv::new(a, w);
            prop_assert_eq!(Bv::from_i64(x.as_i64(), w), x);
            prop_assert_eq!(sign_extend(x.as_u64(), w), x.as_i64());
            Ok(())
        },
    );
}

#[test]
fn bv_concat_then_slice_recovers_parts() {
    check(
        "concat/slice roundtrip",
        &(any_u64(), any_u64(), ints(1u32..=32), ints(1u32..=32)),
        |&(a, b, wa, wb)| {
            let hi = Bv::new(a, wa);
            let lo = Bv::new(b, wb);
            let cat = hi.concat(lo);
            prop_assert_eq!(cat.slice(wa + wb - 1, wb), hi);
            prop_assert_eq!(cat.slice(wb - 1, 0), lo);
            Ok(())
        },
    );
}

#[test]
fn bv_shifts_match_u64_shifts() {
    check(
        "shifts vs u64",
        &(any_u64(), widths(), ints(0u32..=79)),
        |&(a, w, s)| {
            let x = Bv::new(a, w);
            let logical = if s >= 64 {
                0
            } else {
                (x.as_u64() << s) & mask(w)
            };
            prop_assert_eq!(x.shl(s).as_u64(), logical);
            let right = if s >= 64 { 0 } else { x.as_u64() >> s };
            prop_assert_eq!(x.shr(s).as_u64(), right);
            let arith = x.as_i64() >> s.min(63);
            prop_assert_eq!(x.sar(s).as_i64(), (arith << (64 - w)) >> (64 - w));
            Ok(())
        },
    );
}

#[test]
fn bv_comparisons_match_integers() {
    check(
        "comparisons vs integers",
        &(any_u64(), any_u64(), widths()),
        |&(a, b, w)| {
            let x = Bv::new(a, w);
            let y = Bv::new(b, w);
            prop_assert_eq!(x.lt(y), x.as_u64() < y.as_u64());
            prop_assert_eq!(x.lt_signed(y), x.as_i64() < y.as_i64());
            Ok(())
        },
    );
}

#[test]
fn bv_zext_preserves_value_sext_preserves_signed() {
    check(
        "zext/sext preserve views",
        &(any_u64(), ints(1u32..=32), ints(0u32..=32)),
        |&(a, w, extra)| {
            let x = Bv::new(a, w);
            prop_assert_eq!(x.zext(w + extra).as_u64(), x.as_u64());
            prop_assert_eq!(x.sext(w + extra).as_i64(), x.as_i64());
            Ok(())
        },
    );
}

#[test]
fn uint_ops_match_bv() {
    check("UInt ops vs Bv", &(any_u64(), any_u64()), |&(a, b)| {
        let (x, y) = (UInt::<24>::new(a), UInt::<24>::new(b));
        prop_assert_eq!((x + y).value(), x.to_bv().add(y.to_bv()).as_u64());
        prop_assert_eq!((x - y).value(), x.to_bv().sub(y.to_bv()).as_u64());
        prop_assert_eq!((x * y).value(), x.to_bv().mul(y.to_bv()).as_u64());
        prop_assert_eq!((!x).value(), x.to_bv().not().as_u64());
        Ok(())
    });
}

#[test]
fn sint_wraps_like_bv() {
    check("SInt ops vs Bv", &(any_i64(), any_i64()), |&(a, b)| {
        let (x, y) = (SInt::<20>::new(a), SInt::<20>::new(b));
        prop_assert_eq!((x + y).value(), x.to_bv().add(y.to_bv()).as_i64());
        prop_assert_eq!((x * y).value(), x.to_bv().mul_signed(y.to_bv()).as_i64());
        prop_assert_eq!((-x).value(), x.to_bv().neg().as_i64());
        Ok(())
    });
}

#[test]
fn sint_saturating_add_is_clamped_exact_sum() {
    check(
        "saturating add clamps",
        &(any_i64(), any_i64()),
        |&(a, b)| {
            let (x, y) = (SInt::<16>::new(a), SInt::<16>::new(b));
            let exact = x.value() + y.value();
            let clamped = exact.clamp(
                SInt::<16>::min_value().value(),
                SInt::<16>::max_value().value(),
            );
            prop_assert_eq!(x.saturating_add(y).value(), clamped);
            Ok(())
        },
    );
}

#[test]
fn logicvec_roundtrip() {
    check("LogicVec roundtrip", &(any_u64(), widths()), |&(a, w)| {
        let x = Bv::new(a, w);
        let lv = LogicVec::from_bv(x);
        prop_assert!(lv.is_known());
        prop_assert_eq!(lv.to_bv(), Some(x));
        Ok(())
    });
}

#[test]
fn logic_ops_match_bool_ops_when_known() {
    check("Logic vs bool", &(bools(), bools()), |&(a, b)| {
        let (x, y) = (Logic::from_bool(a), Logic::from_bool(b));
        prop_assert_eq!(x.and(y).to_bool(), Some(a & b));
        prop_assert_eq!(x.or(y).to_bool(), Some(a | b));
        prop_assert_eq!(x.xor(y).to_bool(), Some(a ^ b));
        prop_assert_eq!(x.not().to_bool(), Some(!a));
        Ok(())
    });
}

#[test]
fn sfixed_quantisation_error_within_half_ulp() {
    check("SFixed quantisation", &floats(-0.999..=0.999), |&v| {
        let q = SFixed::from_f64(v, 16, 15);
        prop_assert!((q.to_f64() - v).abs() <= q.ulp() / 2.0 + 1e-12);
        Ok(())
    });
}

#[test]
fn sfixed_full_multiply_is_exact() {
    check(
        "SFixed full multiply",
        &(floats(-0.999..=0.999), floats(-0.999..=0.999)),
        |&(a, b)| {
            let x = SFixed::from_f64(a, 16, 15);
            let y = SFixed::from_f64(b, 16, 15);
            let p = x.mul_full(&y);
            // The product of the *quantised* values is represented exactly.
            prop_assert!((p.to_f64() - x.to_f64() * y.to_f64()).abs() < 1e-12);
            Ok(())
        },
    );
}

#[test]
fn bits_for_is_minimal() {
    check("bits_for minimal", &any_u64(), |&v| {
        let w = bits_for(v);
        prop_assert!(v <= mask(w));
        if w > 1 {
            prop_assert!(v > mask(w - 1));
        }
        Ok(())
    });
}
