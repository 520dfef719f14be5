//! The line half of the text codec (`nautix_stats::text`) on a toy
//! document that uses every piece: key lines, a nested document's literal
//! lines, a repeated row, a terminator.

use nautix_stats::text::{parse_u64, Reader, Writer};

fn doc() -> String {
    let mut w = Writer::new("demo v1");
    w.kv("a", "1");
    w.line("inner v2");
    w.kv("b", "x y");
    w.line("end");
    w.kv("row", "0 1");
    w.kv("row", "1 2");
    w.finish("eof")
}

fn read(text: &str) -> Result<(u64, String, Vec<String>), String> {
    let mut r = Reader::new(text, "demo", "demo v1")?;
    let a = r.u64("a")?;
    r.literal("inner v2")?;
    let b = r.take("b")?.to_string();
    r.literal("end")?;
    let mut rows = Vec::new();
    while let Some(row) = r.take_if("row") {
        rows.push(row.to_string());
    }
    r.finish("eof")?;
    Ok((a, b, rows))
}

#[test]
fn a_written_document_reads_back() {
    let t = doc();
    assert_eq!(
        t,
        "demo v1\na 1\ninner v2\nb x y\nend\nrow 0 1\nrow 1 2\neof\n"
    );
    let rows = vec!["0 1".to_string(), "1 2".to_string()];
    assert_eq!(read(&t), Ok((1, "x y".to_string(), rows)));
    // Blank lines after the terminator are the only slack.
    assert!(read(&format!("{t}\n  \n")).is_ok());
    assert!(read(t.strip_suffix('\n').unwrap()).is_ok());
}

#[test]
fn every_framing_defect_is_named() {
    let t = doc();
    let err = |text: &str| read(text).unwrap_err();
    assert!(err("").contains("unknown demo version"));
    assert!(err(&t.replace("demo v1", "demo v2")).contains("unknown demo version"));
    assert!(err(&t.replace("a 1\n", "")).contains("expected key `a`, got `inner`"));
    assert!(err(&t.replace("a 1", "c 1")).contains("expected key `a`, got `c`"));
    assert!(err(&t.replace("a 1", "a")).contains("expected `a <value>`"));
    assert!(err(&t.replace("inner v2", "inner v3")).contains("expected `inner v2`"));
    assert!(err("demo v1\na 1\n").contains("truncated demo: missing `inner v2`"));
    assert!(err(t.strip_suffix("eof\n").unwrap()).contains("missing `eof`"));
    assert!(err(&t.replace("eof", "row")).contains("expected `eof`, got `row`"));
    assert!(err(&format!("{t}x\n")).contains("after `eof`: `x`"));
    assert!(err(&t.replace('\n', "\r\n")).contains("unknown demo version"));
}

#[test]
fn u64_values_accept_only_their_own_spelling() {
    assert_eq!(parse_u64("0"), Some(0));
    assert_eq!(parse_u64("18446744073709551615"), Some(u64::MAX));
    for bad in ["+5", "007", "-0", "0x10", " 5", "5 ", "", "5\r"] {
        assert_eq!(parse_u64(bad), None, "`{bad:?}`");
    }
    let e = read(&doc().replace("a 1", "a +1")).unwrap_err();
    assert!(e.contains("`a` value `+1`"), "{e}");
}
