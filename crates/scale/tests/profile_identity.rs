//! Store identity on the paper's sites: every Table 1 profile, built small
//! on both stores, reads the same through `SiteSource`. The proptest in
//! `proptest_scale.rs` draws `SiteSpec::demo` with four knobs; the
//! experiment harness reads the Table 1 profiles off the packed store, so
//! this holds those profiles (languages, palettes, chains, extensionless
//! and unique-id URLs) to the eager build: every accessor, rendered body,
//! declared size and target payload, the URL index, and the omniscient
//! views (`target_urls`, `source_depths`, `census`).

use sb_scale::stream_site;
use sb_webgraph::gen::{build_site, paper_profiles, PageKind, SiteSource};
use sb_webgraph::PageId;

/// Small enough for a debug build: the largest profile is ~300 pages, the
/// smallest the 60-page floor of `SiteSpec::scaled`.
const SCALE: f64 = 0.0003;

#[test]
fn every_paper_profile_reads_the_same_on_both_stores() {
    for profile in paper_profiles() {
        let spec = profile.scaled(SCALE);
        // The experiment harness's seed for the code.
        let seed = sb_webgraph::fnv1a(0x811c_9dc5, spec.code.as_bytes());
        let eager = build_site(&spec, seed);
        // A render cache of a few pages, so the packed store evicts and
        // re-renders while the eager one keeps every body.
        let packed = stream_site(&spec, seed).with_render_cache_budget(16 << 10);
        let (a, b): (&dyn SiteSource, &dyn SiteSource) = (&eager, &packed);
        let code = spec.code;

        assert_eq!(format!("{:?}", a.spec()), format!("{:?}", b.spec()), "{code}: spec");
        assert_eq!(a.seed(), b.seed(), "{code}: seed");
        assert_eq!(a.root(), b.root(), "{code}: root");
        assert_eq!(a.n_pages(), b.n_pages(), "{code}: pages");
        for section in 0..=spec.structure.sections as u16 {
            assert_eq!(
                format!("{:?}", a.section_style(section)),
                format!("{:?}", b.section_style(section)),
                "{code}: style of section {section}"
            );
        }
        for id in 0..a.n_pages() as PageId {
            assert_eq!(a.kind(id), b.kind(id), "{code}: kind of page {id}");
            assert_eq!(a.url(id), b.url(id), "{code}: url of page {id}");
            assert_eq!(a.title(id), b.title(id), "{code}: title of page {id}");
            assert_eq!(a.out_links(id), b.out_links(id), "{code}: links of page {id}");
            assert_eq!(b.lookup(a.url(id)), Some(id), "{code}: lookup of page {id}");
            assert_eq!(a.true_class(id), b.true_class(id), "{code}: class of page {id}");
            assert_eq!(a.content_length(id), b.content_length(id), "{code}: size of page {id}");
            match a.kind(id) {
                PageKind::Html(_) => {
                    assert!(a.rendered(id) == b.rendered(id), "{code}: body of page {id}")
                }
                PageKind::Target { .. } => assert!(
                    a.target_payload(id) == b.target_payload(id),
                    "{code}: payload of page {id}"
                ),
                PageKind::Error { .. } | PageKind::Redirect { .. } => {}
            }
        }
        let missing = format!("{}no-such-page", spec.start_url);
        assert_eq!((a.lookup(&missing), b.lookup(&missing)), (None, None), "{code}: miss");
        assert_eq!(a.target_urls(), b.target_urls(), "{code}: target urls");
        assert_eq!(a.source_depths(), b.source_depths(), "{code}: depths");
        assert_eq!(a.census(), b.census(), "{code}: census");
    }
}
