//! `serves_live`, the truth oracle's verdict, against the body-hash
//! compare it replaced.

use super::*;
use proptest::prelude::*;
use sb_httpsim::{Body, Headers};
use sb_revisit::fnv64;
use std::sync::Arc;

fn stored(bytes: &[u8]) -> PageVersion {
    PageVersion {
        url: Arc::from("https://s/a"),
        status: 200,
        body: Body::from(bytes),
        body_hash: fnv64(bytes),
        generation: 1,
    }
}

fn live(status: u16, bytes: &[u8]) -> Response {
    Response { status, headers: Headers::default(), body: Body::from(bytes) }
}

#[test]
fn equal_bytes_are_fresh() {
    assert!(serves_live(&stored(b"<html>v1</html>"), &live(200, b"<html>v1</html>")));
}

#[test]
fn one_different_byte_at_equal_length_is_stale() {
    assert!(!serves_live(&stored(b"<html>v1</html>"), &live(200, b"<html>v2</html>")));
}

#[test]
fn a_different_length_is_stale() {
    assert!(!serves_live(&stored(b"<html>v1</html>"), &live(200, b"<html>v1</html> ")));
    assert!(!serves_live(&stored(b"<html>v1</html>"), &live(200, b"<html>v1")));
}

#[test]
fn an_error_status_is_stale_even_over_equal_bytes() {
    for status in [400, 404, 410, 500, 503] {
        assert!(!serves_live(&stored(b"gone"), &live(status, b"gone")), "{status}");
    }
}

#[test]
fn empty_bodies() {
    assert!(serves_live(&stored(b""), &live(200, b"")));
    assert!(serves_live(&stored(b""), &Response { body: Body::empty(), ..live(200, b"") }));
    assert!(!serves_live(&stored(b""), &live(200, b"x")));
    assert!(!serves_live(&stored(b"x"), &live(200, b"")));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The byte compare gives the verdict the body-hash compare it
    /// replaced gave: `b` is `a` unchanged, one byte changed, cut
    /// short, extended, or drawn independently.
    #[test]
    fn serves_live_agrees_with_the_hash_compare(
        a in proptest::collection::vec(any::<u8>(), 0..96),
        edit in 0u8..5,
        at in any::<usize>(),
        delta in 1u8..=255,
        other in proptest::collection::vec(any::<u8>(), 0..96),
        status in 100u16..600,
    ) {
        let mut b = a.clone();
        match edit {
            0 => {}
            1 if !b.is_empty() => {
                let i = at % b.len();
                b[i] = b[i].wrapping_add(delta);
            }
            1 => b.push(delta),
            2 => b.truncate(at % (a.len() + 1)),
            3 => b.extend_from_slice(&other),
            _ => b = other,
        }
        let by_hash = status < 400 && fnv64(&a) == fnv64(&b);
        prop_assert_eq!(serves_live(&stored(&a), &live(status, &b)), by_hash);
    }
}
