//! The value half of the text codec (`nautix_des::text`): what each
//! primitive spelling accepts, and — the point — what it does not.

use nautix_des::text::{split, tag, Value};

#[test]
fn integers_accept_only_their_own_spelling() {
    assert_eq!(u64::decode("0"), Ok(0));
    assert_eq!(u64::decode("18446744073709551615"), Ok(u64::MAX));
    assert_eq!(usize::decode("42"), Ok(42));
    for bad in [
        "+5",
        "007",
        "-0",
        "0x10",
        "1e3",
        " 5",
        "5 ",
        "",
        "18446744073709551616",
        "٥",
        "5\0",
    ] {
        assert!(u64::decode(bad).is_err(), "`{bad:?}` must not decode");
    }
    assert!(u8::decode("256").is_err());
    let e = u32::decode("+5").unwrap_err();
    assert!(e.contains("not canonical") && e.contains("`5`"), "{e}");
    assert!(u32::decode("x").unwrap_err().ends_with("not a u32"));
}

#[test]
fn switches_options_and_lists() {
    assert_eq!(bool::decode("on"), Ok(true));
    assert_eq!(bool::decode("off"), Ok(false));
    assert!(bool::decode("On").is_err());
    assert!(bool::decode("1").is_err());
    assert_eq!(Option::<usize>::decode("none"), Ok(None));
    assert_eq!(Option::<usize>::decode("3"), Ok(Some(3)));
    assert!(Option::<usize>::decode("").is_err());
    assert!(Option::<usize>::decode("None").is_err());
    assert_eq!(Vec::<usize>::decode(""), Ok(vec![]));
    assert_eq!(Vec::<usize>::decode("0,2,1"), Ok(vec![0, 2, 1]));
    for bad in ["0,", ",0", "0,,1", "0, 1", "0,+1"] {
        assert!(Vec::<usize>::decode(bad).is_err(), "`{bad}`");
    }
    for v in [vec![], vec![7usize], vec![1, 2, 3]] {
        assert_eq!(Vec::<usize>::decode(&v.encode()), Ok(v));
    }
}

#[test]
fn split_checks_arity_and_names_it() {
    assert_eq!(split::<2>("a:b", ':', "pair"), Ok(["a", "b"]));
    assert_eq!(split::<3>("::", ':', "triple"), Ok(["", "", ""]));
    let e = split::<3>("a:b", ':', "triple").unwrap_err();
    assert!(e.contains("triple") && e.contains("3") && e.contains("got 2"));
    assert!(split::<1>("a:b", ':', "one").is_err());
}

#[test]
fn tag_lists_name_their_alternatives() {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ab {
        A,
        B,
    }
    impl Value for Ab {
        fn encode(&self) -> String {
            match self {
                Ab::A => "a",
                Ab::B => "b",
            }
            .into()
        }

        fn parse(s: &str) -> Result<Ab, String> {
            tag(s, "ab", &[Ab::A, Ab::B])
        }
    }
    assert_eq!(Ab::decode("b"), Ok(Ab::B));
    assert_eq!(
        Ab::decode("c").unwrap_err(),
        "ab: expected one of a/b, got `c`"
    );
    assert!(Ab::decode("B").is_err());
}
