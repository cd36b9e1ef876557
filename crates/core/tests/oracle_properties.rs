//! Property tests for the oracle's configuration-file codec
//! (`Oracle::from_config_str`): arbitrary text never panics and every
//! error names a line that exists and is the first bad one; negative and
//! non-finite costs are refused; and the text printed from any valid rule
//! table parses back to an oracle that gives the same `characterize`
//! answers.

use proptest::prelude::*;
use sweb_core::{CostProfile, Oracle};

/// Pieces config text is made of, well-formed and not: keys, numbers of
/// every spelling `f64::from_str` takes or refuses, comments, separators.
const TOKENS: [&str; 24] = [
    "/cgi-bin/search", "/", "/a/b", "static-default", "cgi-default", "noslash", "0", "1.2",
    "8.0e6", "-1", "-0", "1e400", "NaN", "inf", "-inf", "x", "#", "# note", " ", "\t", "\n",
    "\r\n", "\n\n", "é",
];

/// Config text from token indices; an index past [`TOKENS`] is one
/// arbitrary character instead.
fn text_of(picks: &[(u8, char)]) -> String {
    picks
        .iter()
        .map(|&(i, c)| TOKENS.get(i as usize).map_or(c.to_string(), |t| t.to_string()))
        .collect()
}

/// The oracle the text for `rules` must parse into, built directly.
fn expected(rules: &[(u8, String, f64, f64)]) -> Oracle {
    let mut oracle = Oracle::ncsa_default();
    for (kind, prefix, base_ops, ops_per_byte) in rules {
        let profile = CostProfile { base_ops: *base_ops, ops_per_byte: *ops_per_byte };
        match kind % 4 {
            0 => oracle.static_default = profile,
            1 => oracle.cgi_default = profile,
            _ => oracle.add_rule(prefix.clone(), profile),
        }
    }
    oracle
}

/// The config file for `rules`, one per line, with comments and blank
/// lines between them.
fn printed(rules: &[(u8, String, f64, f64)]) -> String {
    let mut text = String::from("# generated table\n");
    for (kind, prefix, base_ops, ops_per_byte) in rules {
        let key = match kind % 4 {
            0 => "static-default",
            1 => "cgi-default",
            _ => prefix,
        };
        text.push_str(&format!("{key}\t{base_ops}  {ops_per_byte} # rule\n\n"));
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_text_never_panics_and_errors_name_the_first_bad_line(
        picks in proptest::collection::vec((0u8..32, any::<char>()), 0..48)
    ) {
        let text = text_of(&picks);
        let lines: Vec<&str> = text.lines().collect();
        if let Err(line) = Oracle::from_config_str(&text) {
            prop_assert!((1..=lines.len()).contains(&line), "line {line} of {}", lines.len());
            prop_assert!(Oracle::from_config_str(lines[line - 1]).is_err());
            prop_assert!(Oracle::from_config_str(&lines[..line - 1].join("\n")).is_ok());
        }
    }

    #[test]
    fn negative_and_non_finite_costs_are_refused(
        good in 0usize..4,
        bad in 0usize..7,
        column in any::<bool>(),
        magnitude in 1e-9f64..1e12
    ) {
        let value = [
            format!("-{magnitude}"), "NaN".into(), "inf".into(), "-inf".into(),
            "infinity".into(), "1e400".into(), "-1e400".into(),
        ][bad].clone();
        let (base, per_byte) = if column { (value.as_str(), "1.2") } else { ("1.2", value.as_str()) };
        let mut text = "/ok 1 1\n".repeat(good);
        text.push_str(&format!("/cgi-bin/bad {base} {per_byte}\n/after 1 1\n"));
        prop_assert_eq!(Oracle::from_config_str(&text).err(), Some(good + 1));
    }

    #[test]
    fn printed_rules_parse_back_to_the_same_answers(
        rules in proptest::collection::vec(
            (any::<u8>(), "/[a-z0-9/_.-]{0,8}", 0f64..1e9, 0f64..64.0),
            0..8
        ),
        size in 0u64..2_000_000
    ) {
        let parsed = Oracle::from_config_str(&printed(&rules));
        prop_assert!(parsed.is_ok(), "{:?}", parsed.err());
        let (parsed, want) = (parsed.unwrap(), expected(&rules));
        prop_assert_eq!(parsed.rules(), want.rules());
        let probes = rules
            .iter()
            .flat_map(|(_, prefix, _, _)| [prefix.clone(), format!("{prefix}x/y")])
            .chain(["/".into(), "/cgi-bin/x".into(), "/other.html".into()]);
        for path in probes {
            prop_assert_eq!(parsed.characterize(&path, size), want.characterize(&path, size), "{}", path);
        }
    }
}
