//! Property tests for the robots.txt parser and matcher (never panic,
//! spec invariants).

use proptest::prelude::*;
use sb_httpsim::robots::pattern_matches;
use sb_httpsim::RobotsTxt;

proptest! {
    /// The parser must accept anything without panicking — robots.txt in
    /// the wild is full of garbage — and always answer queries.
    #[test]
    fn robots_parse_never_panics(text in ".{0,400}", agent in "[a-zA-Z0-9]{0,12}", path in "/[ -~]{0,40}") {
        let r = RobotsTxt::parse(&text);
        let _ = r.allows(&agent, &path);
        let _ = r.crawl_delay(&agent);
    }

    /// A file with no groups allows everything for everyone.
    #[test]
    fn robots_empty_allows_all(agent in "[a-z]{1,8}", path in "/[ -~]{0,40}") {
        let r = RobotsTxt::parse("# only comments\n\n");
        prop_assert!(r.allows(&agent, &path));
        prop_assert_eq!(r.crawl_delay(&agent), None);
    }

    /// `Disallow: /` under `User-agent: *` blocks every path for every
    /// agent — the strongest rule dominates whatever else the path is.
    #[test]
    fn robots_disallow_root_blocks_everything(agent in "[a-z]{1,8}", path in "/[ -~]{0,40}") {
        let r = RobotsTxt::parse("User-agent: *\nDisallow: /");
        prop_assert!(!r.allows(&agent, &path));
    }

    /// A wildcard-free, unanchored pattern matches exactly the paths it
    /// prefixes — no more, no less.
    #[test]
    fn literal_patterns_are_prefix_matches(pat in "/[a-z0-9/]{0,16}", path in "/[a-z0-9/]{0,24}") {
        prop_assert_eq!(pattern_matches(&pat, &path), path.starts_with(&pat));
    }

    /// `pattern$` matches iff the unanchored pattern matches with its tail
    /// ending exactly at the path end; `$`-anchored never matches a strict
    /// extension of a match it rejects.
    #[test]
    fn anchored_literal_is_equality(pat in "/[a-z0-9]{0,16}") {
        let anchored = format!("{pat}$");
        let extended = format!("{pat}x");
        prop_assert!(pattern_matches(&anchored, &pat));
        prop_assert!(!pattern_matches(&anchored, &extended));
    }

    /// The glob matcher never panics on adversarial patterns.
    #[test]
    fn glob_never_panics(pat in "[*a-z$/]{0,24}", path in "[ -~]{0,48}") {
        let _ = pattern_matches(&pat, &path);
    }

    /// A lone `*` (plus the implicit prefix semantics) matches everything.
    #[test]
    fn star_matches_everything(path in "[ -~]{0,64}") {
        prop_assert!(pattern_matches("*", &path));
    }
}
