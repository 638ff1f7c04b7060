//! Deferred target bodies are the eager bytes.
//!
//! `SiteServer` answers a target GET with a body that generates its payload
//! on first read. Over arbitrary generated sites, eager and streaming, with
//! every format of the data palette plus `doc`: each target's served body
//! equals `target_payload(id)` and the frozen generator's bytes, two threads
//! reading one handle see the same bytes, and two handles of one target
//! compare equal.

use proptest::prelude::*;
use sb_httpsim::{HttpServer, SiteServer};
use sb_scale::stream_site;
use sb_webgraph::gen::{build_site, PageKind, SiteSource, SiteSpec};
use sb_webgraph::PageId;
use std::sync::{Arc, Barrier};

/// The frozen origin oracle `sb-webgraph`'s tests keep, shared rather than
/// copied.
#[path = "../../webgraph/tests/oracle/mod.rs"]
mod render_oracle;

/// The data-portal palette's formats, plus `doc`.
const FORMATS: &[(&str, f64)] = &[
    ("csv", 1.0),
    ("xlsx", 1.0),
    ("xls", 1.0),
    ("zip", 1.0),
    ("pdf", 1.0),
    ("json", 1.0),
    ("ods", 1.0),
    ("tsv", 1.0),
    ("doc", 1.0),
];

fn check_site(site: Arc<dyn SiteSource>, store: &str) -> Result<usize, TestCaseError> {
    let server = SiteServer::from_source(Arc::clone(&site));
    let mut targets = 0;
    for id in 0..site.n_pages() as PageId {
        let PageKind::Target { ext, planted_tables, declared_size, .. } = site.kind(id) else {
            continue;
        };
        targets += 1;
        let url = site.url(id);
        let body = server.get(url).body;
        let frozen = render_oracle::content::target_body(
            site.seed() ^ u64::from(id),
            ext,
            *planted_tables,
            *declared_size,
            site.section_style(0).lang,
        );
        prop_assert!(*body == *frozen, "{}: {} ({}) differs from the frozen generator", store, url, ext);
        prop_assert!(*body == *site.target_payload(id), "{}: {} differs from target_payload", store, url);

        // Two threads race the first read of one handle.
        let shared = server.get(url).body;
        let start = Barrier::new(2);
        let reads: Vec<Vec<u8>> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        shared.to_vec()
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().expect("reader")).collect()
        });
        prop_assert!(reads[0] == reads[1] && reads[0] == frozen, "{}: {} racing reads differ", store, url);

        prop_assert!(server.get(url).body == server.get(url).body, "{}: {} handles differ", store, url);
    }
    Ok(targets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn deferred_target_bodies_equal_eager_bytes(
        n in 40usize..120,
        size_mb in 0.005f64..0.4,
        seed in 0u64..1000,
        budget in 0usize..3,
    ) {
        // No target cache, one a few payloads wide, an unbounded one.
        let target_budget = [0, 96 << 10, u64::MAX][budget];
        let mut spec = SiteSpec::demo(n);
        spec.palette = FORMATS;
        spec.target_size_mb = (size_mb, size_mb);
        let eager = build_site(&spec, seed).with_target_cache_budget(target_budget);
        let streaming = stream_site(&spec, seed).with_target_cache_budget(target_budget);
        let eager_targets = check_site(Arc::new(eager), "eager")?;
        let streaming_targets = check_site(Arc::new(streaming), "streaming")?;
        prop_assert_eq!(eager_targets, streaming_targets);
        prop_assert!(eager_targets > 0);
    }
}
