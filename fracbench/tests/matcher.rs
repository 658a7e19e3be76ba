//! The open-loop reply matcher and the journal check.

use std::time::{Duration, Instant};

use fracdram_benchmark::serve::{check_replies, request_line, Matcher};

fn reply(die: usize, seq: u64) -> String {
    format!(r#"{{"ok":true,"op":"trng","die":{die},"seq":{seq},"gen":0}}"#)
}

#[test]
fn replies_match_fifo_per_die() {
    let t0 = Instant::now();
    let ms = Duration::from_millis;
    let mut m = Matcher::default();
    m.sent(0, t0);
    m.sent(0, t0 + ms(10));
    m.sent(1, t0 + ms(20));
    // Die 1 overtakes die 0 (another shard); die 0 answers in order.
    m.reply(&reply(1, 0), t0 + ms(25));
    m.reply(&reply(0, 0), t0 + ms(30));
    m.reply(&reply(0, 1), t0 + ms(31));
    assert_eq!(m.ok, 3);
    assert_eq!(m.failed(), 0);
    assert_eq!(m.outstanding(), 0);
    let rounded: Vec<f64> = m.latencies_ms.iter().map(|l| l.round()).collect();
    assert_eq!(rounded, [5.0, 30.0, 21.0]);
    assert_eq!(m.replies[1].0, 0);
    assert_eq!(m.replies[1].1, 0);
}

#[test]
fn dieless_and_failed_replies_count_as_failures() {
    let t0 = Instant::now();
    let mut m = Matcher::default();
    m.sent(3, t0);
    m.sent(3, t0);
    m.sent(4, t0);
    // A shed answer names no die: it cannot be matched, and the request
    // it answered stays outstanding.
    m.reply(
        r#"{"ok":false,"code":503,"error":"shard queue full, request shed"}"#,
        t0,
    );
    m.reply(
        r#"{"ok":false,"op":"puf","die":3,"seq":0,"gen":0,"code":500,"error":"x"}"#,
        t0,
    );
    m.reply(&reply(4, 0), t0);
    assert_eq!(m.unmatched, 1);
    assert_eq!(m.ok, 1);
    assert_eq!(m.failed(), 2);
    assert_eq!(m.outstanding(), 1);
    // A reply to a die with nothing outstanding is unmatched too.
    m.reply(&reply(9, 0), t0);
    assert_eq!(m.unmatched, 2);
}

#[test]
fn journal_check_flags_every_differing_or_missing_reply() {
    let dump = format!("{}\n{}\n", reply(0, 0), reply(0, 1));
    let ok = vec![(0, 0, reply(0, 0)), (0, 1, reply(0, 1))];
    assert_eq!(check_replies(&ok, &dump), 0);
    let bad = vec![
        (0, 0, reply(0, 0).replace("trng", "puf")),
        (0, 1, reply(0, 1)),
        (0, 2, reply(0, 2)),
    ];
    assert_eq!(check_replies(&bad, &dump), 2);
}

#[test]
fn request_mix_cycles_seven_ops_and_enrolls_before_verifying() {
    let ops: Vec<String> = (0..7)
        .map(|i| {
            let line = request_line(5, i);
            line.split(r#""op":""#)
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(
        ops,
        ["trng", "write", "read", "puf", "copy", "enroll", "verify"]
    );
    assert!(request_line(5, 0).contains(r#""die":5"#));
}
