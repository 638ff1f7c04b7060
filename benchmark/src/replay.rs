//! Layers no wrapper can reach — HTML inside `process_html`, the classifier
//! and action space inside `SbStrategy`, the frontier and visited set inside
//! the session — measured by replaying the traced iteration's recorded
//! inputs through the same public functions the crawl calls.
//!
//! A replay runs the layer alone, with warm caches and no interleaving, so
//! its numbers are a lower bound on what the layer costs inside the crawl.

use crate::wrap::{FrontierOp, StrList};
use sb_crawler::{ActionSpace, ActionSpaceConfig};
use sb_html::{LinkNeeds, TagPath};
use sb_httpsim::Body;
use sb_ml::{featurize, Class2, FeatureInput, FeatureSet, UrlClassifier};
use sb_scale::{SpillBacking, SpillConfig, SpillQueue, VisitedSet};
use sb_webgraph::{Url, UrlClass};
use std::hint::black_box;
use std::time::Instant;

fn per(total_ns: u128, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total_ns as f64 / n as f64
    }
}

/// Per-page means over the sampled bodies.
#[derive(Debug, Default, Clone, Copy)]
pub struct HtmlReplay {
    pub bytes_per_page: f64,
    pub links_per_page: f64,
    /// Standalone tokenisation into a token vector.
    pub tokenize_ns_per_page: f64,
    /// Tokenise + DOM build, as the crawl does it (the tokenizer streams
    /// into the parser).
    pub parse_ns_per_page: f64,
    /// Link extraction over the parsed document.
    pub extract_ns_per_page: f64,
}

/// Tokenises, parses and extracts every sampled body with the strategy's
/// own `link_needs()`.
pub fn html(bodies: &[Body], needs: LinkNeeds) -> HtmlReplay {
    let (mut bytes, mut links) = (0usize, 0usize);
    let (mut tokenize_ns, mut parse_ns, mut extract_ns) = (0u128, 0u128, 0u128);
    for body in bodies {
        let text = sb_html::body_str(body);
        bytes += text.len();
        let t0 = Instant::now();
        black_box(sb_html::tokenize(black_box(&text)));
        let t1 = Instant::now();
        let doc = sb_html::parse(black_box(&text));
        let t2 = Instant::now();
        let found = sb_html::extract_links_from_with(black_box(&doc), needs);
        let t3 = Instant::now();
        links += black_box(found).len();
        tokenize_ns += (t1 - t0).as_nanos();
        parse_ns += (t2 - t1).as_nanos();
        extract_ns += (t3 - t2).as_nanos();
    }
    let n = bodies.len();
    HtmlReplay {
        bytes_per_page: per(bytes as u128, n),
        links_per_page: per(links as u128, n),
        tokenize_ns_per_page: per(tokenize_ns, n),
        parse_ns_per_page: per(parse_ns, n),
        extract_ns_per_page: per(extract_ns, n),
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct MlReplay {
    pub featurize_ns_per_url: f64,
    pub predict_ns_per_url: f64,
    pub observe_ns_per_url: f64,
    pub trainings: u64,
}

/// `UrlClassifier::paper_default()` over the crawl's streams: the fetched
/// (url, class) stream trains it in order, then every decided URL is
/// featurised and predicted against the trained model.
pub fn ml(decided: &StrList, fetched: &StrList, classes: &[UrlClass]) -> MlReplay {
    let mut clf = UrlClassifier::paper_default();
    let t = Instant::now();
    let mut observed = 0usize;
    for (url, class) in fetched.iter().zip(classes) {
        let class = match class {
            UrlClass::Html => Class2::Html,
            UrlClass::Target => Class2::Target,
            UrlClass::Neither => continue,
        };
        clf.observe(&FeatureInput::url_only(url), class);
        observed += 1;
    }
    let observe_ns = t.elapsed().as_nanos();

    let t = Instant::now();
    for url in decided.iter() {
        black_box(featurize(
            FeatureSet::UrlOnly,
            &FeatureInput::url_only(black_box(url)),
        ));
    }
    let featurize_ns = t.elapsed().as_nanos();

    let t = Instant::now();
    for url in decided.iter() {
        black_box(clf.predict(&FeatureInput::url_only(black_box(url))));
    }
    let predict_ns = t.elapsed().as_nanos();

    MlReplay {
        featurize_ns_per_url: per(featurize_ns, decided.len()),
        predict_ns_per_url: per(predict_ns, decided.len()),
        observe_ns_per_url: per(observe_ns, observed),
        trainings: clf.trainings(),
    }
}

/// `(assign ns per link, actions created)`: the enqueued tag paths through a
/// fresh default `ActionSpace`, in crawl order.
pub fn action(paths: &[TagPath]) -> (f64, usize) {
    let mut space = ActionSpace::new(ActionSpaceConfig::default());
    let t = Instant::now();
    for path in paths {
        // An exploded action space aborts the real crawl; the replay of a
        // crawl that finished never reaches it.
        let _ = black_box(space.assign(black_box(path)));
    }
    (per(t.elapsed().as_nanos(), paths.len()), space.len())
}

#[derive(Debug, Default, Clone, Copy)]
pub struct FrontierReplay {
    pub push_pop_ns_per_id: f64,
    pub spill_events: u64,
    pub peak_in_mem: usize,
    pub peak_spilled: usize,
}

/// The crawl's exact push/pop sequence through a `SpillQueue` of the same
/// cap.
pub fn frontier(ops: &[FrontierOp], mem_cap: usize) -> FrontierReplay {
    let mut queue = SpillQueue::with_config(SpillConfig::bounded(mem_cap, SpillBacking::Memory));
    let (mut peak_in_mem, mut peak_spilled, mut pushed) = (0usize, 0usize, 0usize);
    let t = Instant::now();
    for op in ops {
        match *op {
            FrontierOp::Push(id) => {
                queue.push_back(id);
                pushed += 1;
                peak_in_mem = peak_in_mem.max(queue.in_mem_len());
                peak_spilled = peak_spilled.max(queue.spilled_len());
            }
            FrontierOp::Pop => {
                black_box(queue.pop_front());
            }
        }
    }
    FrontierReplay {
        push_pop_ns_per_id: per(t.elapsed().as_nanos(), pushed),
        spill_events: queue.spill_events(),
        peak_in_mem,
        peak_spilled,
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct VisitedReplay {
    pub intern_ns_per_url: f64,
    pub bytes_per_url: f64,
    pub collisions: u64,
}

/// Every discovered URL interned into a `VisitedSet` with the crawl's
/// compaction threshold (URLs are parsed before the clock starts, as the
/// session interns already-parsed links).
pub fn visited(urls: &StrList, threshold: usize) -> VisitedReplay {
    let parsed: Vec<Url> = urls.iter().filter_map(|u| Url::parse(u).ok()).collect();
    let mut set = VisitedSet::with_threshold(threshold);
    let t = Instant::now();
    for url in &parsed {
        black_box(set.intern(black_box(url)));
    }
    let intern_ns = t.elapsed().as_nanos();
    VisitedReplay {
        intern_ns_per_url: per(intern_ns, parsed.len()),
        bytes_per_url: per(u128::from(set.bytes_estimate()), set.len()),
        collisions: set.collisions(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn html_replay_counts_links_and_bytes() {
        let page = "<html><body><ul><li><a href=\"/a\">a</a></li><li><a href=\"/b\">b</a></li></ul></body></html>";
        let bodies = vec![Body::from(page.as_bytes()), Body::from(page.as_bytes())];
        let r = html(&bodies, LinkNeeds::TAG_PATH);
        assert_eq!(r.links_per_page, 2.0);
        assert_eq!(r.bytes_per_page, page.len() as f64);
        assert!(r.parse_ns_per_page > 0.0 && r.tokenize_ns_per_page > 0.0);
        assert_eq!(html(&[], LinkNeeds::ALL).links_per_page, 0.0);
    }

    #[test]
    fn frontier_replay_spills_past_the_cap_and_drains() {
        let mut ops: Vec<FrontierOp> = (0..5_000).map(FrontierOp::Push).collect();
        ops.extend(std::iter::repeat_n(FrontierOp::Pop, 5_000));
        let r = frontier(&ops, 256);
        assert!(r.spill_events > 0 && r.peak_spilled > 0);
        assert!(
            r.peak_in_mem <= 256 + 256 / 4,
            "in-memory peak {}",
            r.peak_in_mem
        );
        assert!(r.push_pop_ns_per_id > 0.0);
    }

    #[test]
    fn ml_and_visited_replays_consume_their_streams() {
        let mut fetched = StrList::default();
        let mut classes = Vec::new();
        let mut decided = StrList::default();
        for i in 0..40 {
            fetched.push(&format!("https://a.example/files/data-{i}.csv"));
            classes.push(UrlClass::Target);
            fetched.push(&format!("https://a.example/pages/article-{i}.html"));
            classes.push(UrlClass::Html);
            decided.push(&format!("https://a.example/pages/next-{i}.html"));
        }
        fetched.push("https://a.example/dead");
        classes.push(UrlClass::Neither);
        let r = ml(&decided, &fetched, &classes);
        assert_eq!(r.trainings, 8, "80 observations in batches of 10");
        assert!(r.predict_ns_per_url > 0.0 && r.observe_ns_per_url > 0.0);

        let v = visited(&decided, 16);
        assert!(v.intern_ns_per_url > 0.0 && v.bytes_per_url > 0.0);
        assert_eq!(visited(&StrList::default(), 16).bytes_per_url, 0.0);
    }

    #[test]
    fn action_replay_clusters_paths() {
        let paths: Vec<TagPath> = (0..30)
            .map(|i| {
                TagPath::parse(if i % 2 == 0 {
                    "html body div#main ul.datasets li a"
                } else {
                    "html body footer nav a"
                })
            })
            .collect();
        let (ns, actions) = action(&paths);
        assert!(ns > 0.0);
        assert!((1..=2).contains(&actions), "{actions} actions");
    }
}
