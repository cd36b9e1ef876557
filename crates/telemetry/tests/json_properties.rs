//! Property tests for the status JSON codec (`Json::render` /
//! `Json::parse`): what the encoder writes the parser reads back whole,
//! arbitrary text never panics and whatever the parser accepts has one
//! canonical spelling that is a fixed point, strings parse in linear
//! time, and nesting past `Json::MAX_DEPTH` is an error, not a stack
//! overflow.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use sweb_telemetry::Json;

/// Choices drawn from generated words; past the end every draw is 0.
struct Entropy<'a> {
    words: &'a [u64],
    at: usize,
}

impl Entropy<'_> {
    fn draw(&mut self, n: u64) -> u64 {
        let w = self.words.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        w % n.max(1)
    }

    /// Mostly ASCII, with the characters the encoder escapes (quotes,
    /// backslashes, controls) overrepresented, and any scalar value now
    /// and then.
    fn char(&mut self) -> char {
        match self.draw(8) {
            0 => ['"', '\\', '\n', '\t', '\u{0}', '\u{1f}', '/'][self.draw(7) as usize],
            1 => char::from_u32(self.draw(0x11_0000) as u32).unwrap_or('\u{fffd}'),
            _ => char::from(0x20 + self.draw(0x5f) as u8),
        }
    }

    fn string(&mut self) -> String {
        (0..self.draw(12)).map(|_| self.char()).collect()
    }

    /// Any finite `f64` (the encoder writes non-finite numbers as `null`).
    fn number(&mut self) -> f64 {
        let n = f64::from_bits(self.draw(u64::MAX));
        if n.is_finite() {
            n
        } else {
            self.draw(1_000_000) as f64 / 8.0
        }
    }

    /// A value tree at most `depth` containers deep.
    fn value(&mut self, depth: usize) -> Json {
        match self.draw(if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(self.draw(2) == 1),
            2 => Json::Num(self.number()),
            3 => Json::Str(self.string()),
            4 => Json::Arr((0..self.draw(5)).map(|_| self.value(depth - 1)).collect()),
            _ => Json::Obj(
                (0..self.draw(5)).map(|_| (self.string(), self.value(depth - 1))).collect(),
            ),
        }
    }
}

/// Whatever `parse` accepts re-renders to a canonical text that parses
/// back to the same value, and that text is a fixed point.
fn check_canonical(text: &str) -> Result<(), TestCaseError> {
    if let Ok(v) = Json::parse(text) {
        let canonical = v.render();
        let back = Json::parse(&canonical);
        prop_assert_eq!(back.as_ref(), Ok(&v), "canonical form of {:?}", text);
        prop_assert_eq!(back.unwrap().render(), canonical);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// What the encoder writes, the parser reads back whole.
    #[test]
    fn every_value_round_trips(words in proptest::collection::vec(any::<u64>(), 0..400)) {
        let v = Entropy { words: &words, at: 0 }.value(4);
        let text = v.render();
        prop_assert_eq!(Json::parse(&text), Ok(v), "{}", text);
    }

    /// Arbitrary characters never panic the parser.
    #[test]
    fn arbitrary_text_never_panics(chars in proptest::collection::vec(any::<char>(), 0..300)) {
        let text: String = chars.into_iter().collect();
        check_canonical(&text)?;
    }

    /// Rendered documents with a few edits — bytes dropped, JSON
    /// punctuation and escape fragments inserted — reach every branch of
    /// the parser; none panics, and what is accepted is canonical.
    #[test]
    fn near_miss_text_has_a_canonical_fixed_point(
        words in proptest::collection::vec(any::<u64>(), 0..400),
    ) {
        let mut e = Entropy { words: &words, at: 0 };
        let mut text: Vec<char> = e.value(3).render().chars().collect();
        for _ in 0..e.draw(4) {
            let at = e.draw(text.len() as u64 + 1) as usize;
            if e.draw(2) == 0 && at < text.len() {
                text.remove(at);
            } else {
                let piece = ["\"", "\\", "\\u", "\\u+041", "{", "}", "[", "]", ",", ":", "-", "0",
                    "1e", ".", " ", "\n", "null", "tru"][e.draw(18) as usize];
                text.splice(at..at, piece.chars());
            }
        }
        check_canonical(&text.into_iter().collect::<String>())?;
    }
}

#[test]
fn depth_past_the_cap_is_an_error_not_an_overflow() {
    let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    let objects = |n: usize| format!("{}1{}", "{\"k\":".repeat(n), "}".repeat(n));
    for nest in [arrays, objects] {
        assert!(Json::parse(&nest(Json::MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(Json::MAX_DEPTH + 1)).is_err());
    }
    // This many unclosed brackets used to abort the process.
    assert!(Json::parse(&"[".repeat(200_000)).is_err());
}

#[test]
fn long_strings_parse_in_linear_time() {
    // Every plain character used to re-validate the rest of the input:
    // 160 k characters took half a second in a release build, a million
    // would take about twenty. Linear, a million takes milliseconds.
    let s: String = "abcdéf√😀".chars().cycle().take(1_000_000).collect();
    let text = Json::Str(s.clone()).render();
    let t0 = Instant::now();
    assert_eq!(Json::parse(&text), Ok(Json::Str(s)));
    assert!(t0.elapsed() < Duration::from_secs(2), "took {:?}", t0.elapsed());
}
