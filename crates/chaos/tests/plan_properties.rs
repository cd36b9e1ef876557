//! Property tests for the fault-plan text codec (`FaultPlan::to_text` /
//! `FaultPlan::from_text`): what the encoder writes the decoder reads
//! back whole, arbitrary text never panics, and whatever text the
//! decoder accepts has one canonical spelling that is a fixed point.

use proptest::prelude::*;
use sweb_chaos::{Fault, FaultPlan, Window};

/// A window from generated parts; one in four is [`Window::ALWAYS`].
fn window(pick: u8, start_ms: u64, end_ms: u64) -> Window {
    if pick.is_multiple_of(4) {
        Window::ALWAYS
    } else {
        Window::between(start_ms, end_ms)
    }
}

/// Number of [`Fault`] variants; [`kind_of`] is exhaustive, so a new
/// variant does not compile here until [`fault`] can build it.
const KINDS: u8 = 9;

/// A fault of variant `kind % KINDS` from generated fields.
fn fault(kind: u8, a: u32, b: u32, n: u64, w: Window) -> Fault {
    match kind % KINDS {
        0 => Fault::LoaddLoss { from: a, to: b, rate_ppm: n as u32, window: w },
        1 => Fault::LoaddDelay { from: a, to: b, delay_ms: n, window: w },
        2 => Fault::Partition { a, b, window: w },
        3 => Fault::Crash { node: a, at_ms: n },
        4 => Fault::Revive { node: a, at_ms: n },
        5 => Fault::Pause { node: a, window: w },
        6 => Fault::SlowDisk { node: a, extra_ms: n, window: w },
        7 => Fault::FdPressure { node: a, window: w },
        _ => Fault::Brownout { node: a, delay_ms: n, window: w },
    }
}

/// The inverse of [`fault`]'s variant choice.
fn kind_of(f: &Fault) -> u8 {
    match f {
        Fault::LoaddLoss { .. } => 0,
        Fault::LoaddDelay { .. } => 1,
        Fault::Partition { .. } => 2,
        Fault::Crash { .. } => 3,
        Fault::Revive { .. } => 4,
        Fault::Pause { .. } => 5,
        Fault::SlowDisk { .. } => 6,
        Fault::FdPressure { .. } => 7,
        Fault::Brownout { .. } => 8,
    }
}

/// Every directive and the fields it requires (`seed` takes a bare
/// number instead).
const DIRECTIVES: [(&str, &[&str]); 10] = [
    ("seed", &[]),
    ("loadd-loss", &["from", "to", "rate_ppm", "start_ms", "end_ms"]),
    ("loadd-delay", &["from", "to", "delay_ms", "start_ms", "end_ms"]),
    ("partition", &["a", "b", "start_ms", "end_ms"]),
    ("crash", &["node", "at_ms"]),
    ("revive", &["node", "at_ms"]),
    ("pause", &["node", "start_ms", "end_ms"]),
    ("slow-disk", &["node", "extra_ms", "start_ms", "end_ms"]),
    ("fd-pressure", &["node", "start_ms", "end_ms"]),
    ("brownout", &["node", "delay_ms", "start_ms", "end_ms"]),
];

/// Plan text that is mostly well-formed and often not quite: directives
/// with their fields shuffled, padded, duplicated, dropped or joined by
/// unknown ones; numbers with signs, leading zeros, past `u32` or `u64`,
/// or not numbers at all; comments, blank lines and CRLF. Every choice
/// is drawn from `entropy`.
fn noisy_text(entropy: &[u64]) -> String {
    let mut at = 0;
    let mut draw = |n: u64| {
        let w = entropy.get(at).copied().unwrap_or(0);
        at += 1;
        w % n.max(1)
    };
    let mut text = String::new();
    for _ in 0..draw(6) {
        let space = [" ", "  ", "\t"][draw(3) as usize];
        match draw(10) {
            0 => text.push_str("# a comment = 1"),
            1 => {}
            _ => {
                let (verb, required) = DIRECTIVES[draw(DIRECTIVES.len() as u64) as usize];
                let mut keys: Vec<&str> = required.to_vec();
                if verb == "seed" {
                    keys.push("");
                }
                if draw(6) == 0 && !keys.is_empty() {
                    keys.remove(draw(keys.len() as u64) as usize);
                }
                if draw(4) == 0 {
                    keys.push(["node", "extra", "at_ms", "from"][draw(4) as usize]);
                }
                for i in (1..keys.len()).rev() {
                    keys.swap(i, draw(i as u64 + 1) as usize);
                }
                text.push_str(if draw(8) == 0 { "  " } else { "" });
                text.push_str(verb);
                // Half the lines keep to numbers that parse, so enough
                // texts are accepted for the canonical-form check to bite.
                let kinds = if draw(2) == 0 { 6 } else { 9 };
                for key in keys {
                    let value = match draw(kinds) {
                        0 => "0".to_string(),
                        1 => draw(1_000).to_string(),
                        2 => draw(u32::MAX as u64 + 1).to_string(),
                        3 => draw(u64::MAX).to_string(),
                        4 => format!("+{}", draw(100)),
                        5 => format!("000{}", draw(100)),
                        6 => "4294967296".to_string(),
                        7 => "18446744073709551616".to_string(),
                        _ => ["x", "", "-1", "1.5"][draw(4) as usize].to_string(),
                    };
                    text.push_str(space);
                    if key.is_empty() {
                        text.push_str(&value);
                    } else {
                        text.push_str(&format!("{key}={value}"));
                    }
                }
            }
        }
        text.push_str(if draw(5) == 0 { "\r\n" } else { "\n" });
    }
    text
}

/// Whatever `from_text` accepts re-encodes to a canonical text that
/// parses back to the same plan, and that text is a fixed point.
fn check_canonical(text: &str) -> Result<(), TestCaseError> {
    if let Ok(plan) = FaultPlan::from_text(text) {
        let canonical = plan.to_text();
        let back = FaultPlan::from_text(&canonical);
        prop_assert_eq!(back.as_ref(), Ok(&plan), "canonical form of {:?}", text);
        prop_assert_eq!(back.unwrap().to_text(), canonical);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// What the encoder writes, the decoder reads back whole.
    #[test]
    fn every_plan_round_trips(
        seed in any::<u64>(),
        faults in proptest::collection::vec(
            ((any::<u8>(), any::<u32>(), any::<u32>(), any::<u64>()),
             (any::<u8>(), any::<u64>(), any::<u64>())),
            0..16,
        ),
    ) {
        let plan = FaultPlan {
            seed,
            faults: faults
                .into_iter()
                .map(|((kind, a, b, n), (pick, start, end))| {
                    fault(kind, a, b, n, window(pick, start, end))
                })
                .collect(),
        };
        let text = plan.to_text();
        prop_assert_eq!(FaultPlan::from_text(&text), Ok(plan), "{}", text);
    }

    /// Arbitrary characters never panic the decoder, and a refusal names
    /// a line that exists.
    #[test]
    fn arbitrary_text_never_panics(chars in proptest::collection::vec(any::<char>(), 0..300)) {
        let text: String = chars.into_iter().collect();
        if let Err(e) = FaultPlan::from_text(&text) {
            prop_assert!(e.line >= 1 && e.line <= text.lines().count(), "{}", e);
        }
        check_canonical(&text)?;
    }

    /// The same over near-miss plan text, which reaches every directive
    /// and field parser.
    #[test]
    fn accepted_text_has_a_canonical_fixed_point(
        entropy in proptest::collection::vec(any::<u64>(), 0..400),
    ) {
        let text = noisy_text(&entropy);
        if let Err(e) = FaultPlan::from_text(&text) {
            prop_assert!(e.line >= 1 && e.line <= text.lines().count(), "{}", e);
        }
        check_canonical(&text)?;
    }
}

/// One plan holding every variant, each with a bounded window and with
/// `Window::ALWAYS`, at both ends of every field's range.
#[test]
fn every_variant_round_trips_at_its_extremes() {
    let mut plan = FaultPlan::seeded(u64::MAX);
    for kind in 0..KINDS {
        for (a, n, w) in [
            (0, 0, Window::ALWAYS),
            (u32::MAX, u64::MAX, Window::between(u64::MAX, 1)),
        ] {
            plan.faults.push(fault(kind, a, a, n, w));
        }
    }
    let kinds: Vec<u8> = plan.faults.iter().map(kind_of).collect();
    assert_eq!(kinds, (0..KINDS).flat_map(|k| [k, k]).collect::<Vec<_>>());
    assert_eq!(FaultPlan::from_text(&plan.to_text()), Ok(plan));
}

/// A number past its field's width is refused, not wrapped: the encoder
/// can never write `node=4294967296`, so the decoder must not read it as
/// node 0.
#[test]
fn numbers_past_a_fields_width_are_refused() {
    for text in [
        "crash node=4294967296 at_ms=1\n",
        "partition a=1 b=4294967296 start_ms=0 end_ms=0\n",
        "loadd-loss from=0 to=1 rate_ppm=4294967296 start_ms=0 end_ms=0\n",
        "slow-disk node=0 extra_ms=18446744073709551616 start_ms=0 end_ms=0\n",
    ] {
        let e = FaultPlan::from_text(text).expect_err(text);
        assert_eq!(e.line, 1, "{e}");
    }
    let widest = "crash node=4294967295 at_ms=18446744073709551615\n";
    let plan = FaultPlan::from_text(widest).unwrap();
    assert_eq!(plan.faults, vec![Fault::Crash { node: u32::MAX, at_ms: u64::MAX }]);
}
