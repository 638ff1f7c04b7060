//! Property tests for the URL module and the site generator.

use proptest::prelude::*;
use sb_webgraph::gen::{build_site, PageKind, SiteSource, SiteSpec};
use sb_webgraph::url::Url;

proptest! {
    /// URL parsing is total on arbitrary input and never panics.
    #[test]
    fn url_parse_total(s in ".{0,200}") {
        let _ = Url::parse(&s);
    }

    /// Parse → display → parse is a fixed point for valid URLs.
    #[test]
    fn url_roundtrip(
        host in "[a-z]{1,8}(\\.[a-z]{1,6}){1,3}",
        path in "(/[a-z0-9._-]{1,10}){0,4}/?",
        query in "([a-z]=[0-9]{1,3}(&[a-z]=[0-9]{1,3}){0,2})?",
    ) {
        let s = if query.is_empty() {
            format!("https://{host}{path}")
        } else {
            format!("https://{host}{path}?{query}")
        };
        let u = Url::parse(&s).expect("constructed to be valid");
        let u2 = Url::parse(&u.as_string()).expect("display form parses");
        prop_assert_eq!(u, u2);
    }

    /// join() always produces a URL on some host, and same-site joins stay
    /// on the site.
    #[test]
    fn join_is_total_for_plausible_refs(reference in "[a-z0-9./?=_#-]{0,60}") {
        let base = Url::parse("https://www.example.org/a/b/page.html").unwrap();
        if let Ok(joined) = base.join(&reference) {
            prop_assert!(!joined.host.is_empty());
            if !reference.contains("://") && !reference.starts_with("//") {
                prop_assert!(joined.same_site_as(&base));
            }
        }
    }

    /// Scratch reuse leaks no state: resolving any sequence of references
    /// (absolute, `//host/…`, `?q`, `/abs`, `rel/../x`, with and without
    /// query and fragment, and ones that fail) into **one** dirty `Url`
    /// equals a fresh `join`/`parse` on every step — after an `Err` too.
    #[test]
    fn into_variants_match_fresh_resolution_on_a_dirty_scratch(
        references in proptest::collection::vec(
            "(https://[a-z]{1,6}\\.org|HTTP://[A-Z]{1,4}\\.COM|ftp://[a-z]{1,4}\\.org|https://|//[a-z]{1,6}\\.net|/|)\
             /?((\\.\\./|\\./|[a-z0-9]{1,5}/){0,3}[a-z0-9.]{0,6})\
             (\\?[a-z]=[a-z:/]{0,10})?(#[a-z]{0,4})?",
            1..24,
        ),
        base_path in "(/[a-z0-9]{1,6}){0,3}/?",
    ) {
        let base = Url::parse(&format!("https://www.example.org{base_path}?base=1")).unwrap();
        let mut joined = base.clone();
        let mut parsed = base.clone();
        for r in &references {
            let got = base.join_into(r, &mut joined).map(|()| joined.clone());
            prop_assert_eq!(got, base.join(r), "join {:?}", r);
            let got = Url::parse_into(r, &mut parsed).map(|()| parsed.clone());
            prop_assert_eq!(got, Url::parse(r), "parse {:?}", r);
        }
    }

    /// Subdomain boundary: a host is same-site iff equal or dot-separated
    /// suffix (never substring tricks).
    #[test]
    fn same_site_requires_dot_boundary(prefix in "[a-z]{1,8}") {
        let root = Url::parse("https://b.com/").unwrap();
        let evil = Url::parse(&format!("https://{prefix}b.com/")).unwrap();
        let sub = Url::parse(&format!("https://{prefix}.b.com/")).unwrap();
        prop_assert!(!evil.same_site_as(&root) || prefix == "www");
        prop_assert!(sub.same_site_as(&root));
    }

    /// Generator invariants for arbitrary spec knobs: every target is
    /// reachable, URLs are unique and on-site, and the census adds up.
    #[test]
    fn generator_invariants(
        n in 80usize..300,
        tf in 0.05f64..0.6,
        lf in 0.02f64..0.3,
        err in 0.0f64..0.25,
        ext in 0.0f64..0.9,
        seed in 0u64..500,
    ) {
        let mut spec = SiteSpec::demo(n);
        spec.target_frac = tf;
        spec.html_to_target_frac = lf;
        spec.error_frac = err;
        spec.extensionless = ext;
        let site = build_site(&spec, seed);
        let census = site.census();
        prop_assert_eq!(census.available, census.html + census.targets);

        let depths = site.source_depths();
        let root = Url::parse(spec.start_url).unwrap();
        let mut seen = std::collections::HashSet::new();
        for (i, p) in site.pages().iter().enumerate() {
            prop_assert!(seen.insert(&p.url), "duplicate URL {}", p.url);
            let u = Url::parse(&p.url).expect("generated URLs parse");
            prop_assert!(u.same_site_as(&root));
            if matches!(p.kind, PageKind::Target { .. }) {
                prop_assert!(depths[i].is_some(), "unreachable target {}", p.url);
            }
        }
        // Counts are within tolerance of the spec.
        let want_targets = spec.n_targets() as f64;
        prop_assert!((census.targets as f64 - want_targets).abs() <= want_targets * 0.1 + 3.0);
    }

    /// Rendering any HTML page re-parses to exactly its out-links.
    #[test]
    fn render_roundtrip_arbitrary_page(seed in 0u64..200) {
        use sb_webgraph::gen::render::render_page;
        let site = build_site(&SiteSpec::demo(150), seed);
        let root = Url::parse(site.page(site.root()).url.as_str()).unwrap();
        // Probe a handful of pages per case.
        for id in (0..site.len() as u32).step_by(17) {
            if !matches!(site.page(id).kind, PageKind::Html(_)) {
                continue;
            }
            let html = render_page(&site, id);
            let links = sb_html::extract_links(&html);
            prop_assert_eq!(links.len(), site.page(id).out.len());
            for l in &links {
                let resolved = root.join(&l.href).expect("hrefs resolve");
                prop_assert!(site.lookup(&resolved.as_string()).is_some(), "dangling {}", l.href);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The declared Content-Length equals the actual rendered length on
    /// every HTML page of arbitrary generated sites. Building renders
    /// nothing; the first length of a page renders it once, a second none.
    #[test]
    fn content_lengths_match_renders(seed in 0u64..200, n in 80usize..250) {
        use sb_webgraph::gen::render::render_page;
        let site = build_site(&SiteSpec::demo(n), seed);
        prop_assert_eq!(site.render_count(), 0, "build_site must not render");
        for id in 0..site.len() as u32 {
            if !matches!(site.page(id).kind, PageKind::Html(_)) {
                continue;
            }
            let renders = site.render_count();
            let declared = site.content_length(id);
            prop_assert_eq!(site.content_length(id), declared);
            prop_assert_eq!(site.render_count(), renders + 1, "one render per sized page");
            let actual = render_page(&site, id).len() as u64;
            prop_assert_eq!(declared, actual, "page {}", id);
        }
    }

    /// The render cache is transparent: cached bytes equal a fresh render,
    /// and each page renders at most once per site instance.
    #[test]
    fn render_cache_is_transparent(seed in 0u64..200) {
        use sb_webgraph::gen::render::render_page;
        let site = build_site(&SiteSpec::demo(150), seed);
        let mut rendered_pages = 0;
        for id in (0..site.len() as u32).step_by(7) {
            if !matches!(site.page(id).kind, PageKind::Html(_)) {
                continue;
            }
            let a = site.rendered(id);
            let b = site.rendered(id);
            rendered_pages += 1;
            prop_assert_eq!(&a[..], &b[..]);
            let fresh = render_page(&site, id);
            prop_assert_eq!(&a[..], fresh.as_bytes());
        }
        prop_assert_eq!(site.render_count(), rendered_pages, "cache must render once per page");
    }

    /// Mutations invalidate the affected page's cache entry: the new body
    /// and the new Content-Length agree after `add_out_link`.
    #[test]
    fn mutation_invalidates_render_cache(seed in 0u64..100) {
        use sb_webgraph::gen::{OutLink, SitePage, Slot};
        let mut site = build_site(&SiteSpec::demo(120), seed);
        let root = site.root();
        let before_len = site.content_length(root);
        let before_body = site.rendered(root);
        let id = site
            .push_page(SitePage {
                url: "https://www.stats.example.org/fresh/extra.csv".to_owned(),
                kind: PageKind::Target {
                    ext: "csv",
                    mime: "text/csv",
                    declared_size: 2048,
                    planted_tables: 1,
                },
                title: "Extra dataset".to_owned(),
                out: Vec::new(),
            })
            .expect("fresh URL");
        site.add_out_link(root, OutLink { to: id, slot: Slot::DatasetItem });
        let after_body = site.rendered(root);
        prop_assert_ne!(&before_body[..], &after_body[..]);
        prop_assert_eq!(site.content_length(root), after_body.len() as u64);
        prop_assert_ne!(before_len, site.content_length(root));
    }
}
