//! Hazard site profiles (PR 6): crawler traps, redirect farms and loops,
//! soft-404s and near-duplicate content clusters woven into an otherwise
//! normal generated site.
//!
//! [`apply_hazards`] post-processes a built [`Website`] — the pinned build
//! pipeline (`build_site`) is untouched, so every census/determinism test
//! of the hazard-free generator keeps holding. The weaving trick is that
//! hazards enter the graph **through URLs the clean site already links**:
//! reachable `Error` pages (dead links every generated site has) are
//! repurposed as hazard entrances. No clean page gains or loses an
//! out-link, so the rendered bytes of every clean page are identical to
//! the hazard-free build — which is what lets the hazard conformance
//! suite assert byte-identical clean-subset coverage at window 1.
//!
//! Profiles:
//!
//! * **Calendar trap** — a deep `/calendar/{year}-{month}` pagination
//!   space entered through a redirect. Every trap page links the next
//!   month plus a "skip ahead" jump (the same doubling shape as
//!   `sb_httpsim::TrapServer`), all at the `Pagination` slot — the
//!   target-rich tag path, so learned strategies are genuinely tempted.
//!   The space is finite (`trap_pages`) but far deeper than any clean
//!   chain, and its tail wraps back on itself.
//! * **Redirect farm + loops** — an entrance becomes a directory page
//!   linking a field of `/go/s/{i}` redirects that chain onto existing
//!   clean articles, plus `/session/{i}/a ⇄ b` redirect 2-cycles that can
//!   only exhaust the crawler's redirect-hop budget.
//! * **Soft-404s** — reachable error URLs flip from `404/500` to a
//!   200-status HTML body with no outgoing links: the classic
//!   target-looking URL that answers "OK" and yields nothing.
//! * **Near-duplicate clusters** — an entrance becomes an "archive"
//!   index linking `copies` clones of one clean article: same section,
//!   same title, same out-links, fresh URLs. Only the seeded filler
//!   prose differs, so the clones' n-gram sketches are far closer to
//!   each other (and to the original) than any unrelated page pair —
//!   detectable with the existing `sb-ann` sketches.
//!
//! Every decision is driven by a seeded RNG and the site's own id order:
//! the same `(site, spec, seed)` triple always produces the same hazard
//! overlay. [`HazardReport`] records the ground truth — which URLs are
//! hazard subspace — so tests and experiments can attribute waste
//! exactly.

use super::{HtmlRole, OutLink, PageId, PageKind, SitePage, SiteSource, Slot, Website};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// How much of each hazard profile to weave in. All counts are clamped to
/// what the site can host (entrances come from its reachable error pages).
#[derive(Debug, Clone, Copy)]
pub struct HazardSpec {
    /// Pages in the calendar-trap subspace (0 disables the trap).
    pub trap_pages: usize,
    /// Redirect pages in the farm (0 disables it).
    pub redirect_farm: usize,
    /// Redirect 2-cycles (each consumes two new URLs; 0 disables).
    pub redirect_loops: usize,
    /// Reachable error pages converted to 200-status soft-404s.
    pub soft_404s: usize,
    /// Near-duplicate clusters (each gets its own entrance).
    pub dup_clusters: usize,
    /// Clone pages per cluster.
    pub dup_copies: usize,
}

impl HazardSpec {
    /// Everything off.
    pub fn none() -> Self {
        HazardSpec {
            trap_pages: 0,
            redirect_farm: 0,
            redirect_loops: 0,
            soft_404s: 0,
            dup_clusters: 0,
            dup_copies: 0,
        }
    }

    /// A moderate full pack scaled to a site of `n_pages` (the shape the
    /// hostile experiments and benches use): trap ≈ n/8, farm ≈ n/16,
    /// two loops, soft-404s ≈ n/20, two 4-copy duplicate clusters.
    pub fn scaled(n_pages: usize) -> Self {
        HazardSpec {
            trap_pages: (n_pages / 8).max(16),
            redirect_farm: (n_pages / 16).max(8),
            redirect_loops: 2,
            soft_404s: (n_pages / 20).max(4),
            dup_clusters: 2,
            dup_copies: 4,
        }
    }

    /// Only the calendar trap.
    pub fn trap_only(trap_pages: usize) -> Self {
        HazardSpec { trap_pages, ..HazardSpec::none() }
    }

    /// Only the redirect farm + loops.
    pub fn redirects_only(farm: usize, loops: usize) -> Self {
        HazardSpec { redirect_farm: farm, redirect_loops: loops, ..HazardSpec::none() }
    }

    /// Only soft-404s.
    pub fn soft_404s_only(n: usize) -> Self {
        HazardSpec { soft_404s: n, ..HazardSpec::none() }
    }

    /// Only near-duplicate clusters.
    pub fn dups_only(clusters: usize, copies: usize) -> Self {
        HazardSpec { dup_clusters: clusters, dup_copies: copies, ..HazardSpec::none() }
    }
}

/// Ground truth of one hazard overlay: which page ids belong to which
/// hazard profile, and the URL set of the whole hazard subspace
/// (entrances included). Everything *not* in here is the clean subset.
#[derive(Debug, Default)]
pub struct HazardReport {
    /// Calendar-trap pages (entrance redirect included).
    pub trap_ids: Vec<PageId>,
    /// Redirect-farm pages (directory page and chain hops included).
    pub farm_ids: Vec<PageId>,
    /// Redirect-loop pages.
    pub loop_ids: Vec<PageId>,
    /// Soft-404 pages (former errors now answering 200).
    pub soft404_ids: Vec<PageId>,
    /// Near-duplicate pages (cluster index pages and clones).
    pub dup_ids: Vec<PageId>,
    urls: HashSet<String>,
}

impl HazardReport {
    /// Is `url` part of the hazard subspace?
    pub fn is_hazard_url(&self, url: &str) -> bool {
        self.urls.contains(url)
    }

    /// Total hazard pages woven in.
    pub fn len(&self) -> usize {
        self.urls.len()
    }

    pub fn is_empty(&self) -> bool {
        self.urls.is_empty()
    }

    fn note(&mut self, site: &Website, id: PageId) {
        self.urls.insert(site.page(id).url.clone());
    }
}

/// The scheme+host prefix of the site (no trailing slash).
fn origin_of(site: &Website) -> String {
    let root = &site.page(site.root()).url;
    match root.find("://").and_then(|p| root[p + 3..].find('/').map(|q| p + 3 + q)) {
        Some(slash) => root[..slash].to_owned(),
        None => root.trim_end_matches('/').to_owned(),
    }
}

/// Reachable error pages in id order — the entrance/conversion pool.
fn reachable_errors(site: &Website) -> Vec<PageId> {
    let depths = site.source_depths();
    (0..site.len() as PageId)
        .filter(|&id| {
            depths[id as usize].is_some()
                && matches!(site.page(id).kind, PageKind::Error { .. })
        })
        .collect()
}

/// Weaves the hazard profiles of `spec` into `site`. Deterministic in
/// `(site, spec, seed)`; returns the ground-truth [`HazardReport`]. Counts
/// are clamped to the entrances the site can offer (reachable error
/// pages); a site with no reachable errors gets no hazards.
pub fn apply_hazards(site: &mut Website, spec: &HazardSpec, seed: u64) -> HazardReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6861_7a61_7264_7321);
    let mut report = HazardReport::default();
    let origin = origin_of(site);
    let mut entrances = reachable_errors(site);
    // Consumed back to front so soft-404 conversions (which take many)
    // come from the id-order tail, leaving low-id entrances for the
    // structured hazards.
    entrances.reverse();

    if spec.trap_pages > 0 {
        if let Some(entry) = entrances.pop() {
            build_trap(site, spec.trap_pages, entry, &origin, &mut report);
        }
    }
    if spec.redirect_farm > 0 || spec.redirect_loops > 0 {
        if let Some(entry) = entrances.pop() {
            build_redirect_field(site, spec, entry, &origin, &mut rng, &mut report);
        }
    }
    for cluster in 0..spec.dup_clusters {
        let Some(entry) = entrances.pop() else { break };
        build_dup_cluster(site, cluster, spec.dup_copies, entry, &origin, &mut rng, &mut report);
    }
    for _ in 0..spec.soft_404s {
        let Some(id) = entrances.pop() else { break };
        site.set_kind(id, PageKind::Html(HtmlRole::Article { section: 0 }));
        report.soft404_ids.push(id);
        report.note(site, id);
    }
    report
}

/// The calendar trap: `/calendar/{year}-{month:02}/` pages linked "next
/// month" + "skip ahead" (both at the Pagination slot), entered through a
/// redirect at `entry`'s already-linked URL. The tail wraps, so the
/// subspace has no exit that a depth-seeking crawler can reach.
fn build_trap(
    site: &mut Website,
    trap_pages: usize,
    entry: PageId,
    origin: &str,
    report: &mut HazardReport,
) {
    let n = trap_pages.max(2);
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let (year, month) = (2000 + i / 12, i % 12 + 1);
        let id = site
            .push_page(SitePage {
                url: format!("{origin}/calendar/{year}-{month:02}/"),
                kind: PageKind::Html(HtmlRole::List { section: 0, page_no: (i % 512) as u16 }),
                title: format!("Events {year}-{month:02}"),
                out: Vec::new(),
            })
            .expect("calendar URLs are fresh");
        ids.push(id);
    }
    for (i, &id) in ids.iter().enumerate() {
        let next = ids[(i + 1) % n];
        let skip = ids[(i * 2 + 3) % n];
        site.add_out_link(id, OutLink { to: next, slot: Slot::Pagination });
        if skip != next {
            site.add_out_link(id, OutLink { to: skip, slot: Slot::Pagination });
        }
    }
    site.set_kind(entry, PageKind::Redirect { to: ids[0] });
    report.trap_ids.push(entry);
    report.note(site, entry);
    for &id in &ids {
        report.trap_ids.push(id);
        report.note(site, id);
    }
}

/// The redirect field: `entry` becomes a directory page linking `farm`
/// redirects (`/go/s/{i}`, chained in threes onto existing clean
/// articles) and `loops` two-cycles (`/session/{i}/a ⇄ b`).
fn build_redirect_field(
    site: &mut Website,
    spec: &HazardSpec,
    entry: PageId,
    origin: &str,
    rng: &mut StdRng,
    report: &mut HazardReport,
) {
    let articles: Vec<PageId> = (0..site.len() as PageId)
        .filter(|&id| matches!(site.page(id).kind, PageKind::Html(HtmlRole::Article { .. })))
        .collect();
    let fallback = site.root();

    // Farm redirects are pushed first so chain hops can reference the
    // next id; each chain of three hops lands on a clean article.
    let farm = spec.redirect_farm;
    let mut farm_ids = Vec::with_capacity(farm);
    let base = site.len() as PageId;
    for i in 0..farm {
        let to = if i % 3 == 2 || i + 1 == farm {
            // Chain tail: a clean page (known to the crawler or not).
            if articles.is_empty() { fallback } else { articles[rng.gen_range(0..articles.len())] }
        } else {
            base + (i as PageId) + 1
        };
        let id = site
            .push_page(SitePage {
                url: format!("{origin}/go/s/{i}"),
                kind: PageKind::Redirect { to },
                title: format!("shortlink {i}"),
                out: Vec::new(),
            })
            .expect("farm URLs are fresh");
        farm_ids.push(id);
    }

    let mut loop_ids = Vec::new();
    for i in 0..spec.redirect_loops {
        let a_url = format!("{origin}/session/{i}/a");
        let b_url = format!("{origin}/session/{i}/b");
        // Push `a` pointing at itself, then retarget once `b` exists.
        let a = site
            .push_page(SitePage {
                url: a_url,
                kind: PageKind::Redirect { to: fallback },
                title: format!("session {i}a"),
                out: Vec::new(),
            })
            .expect("loop URLs are fresh");
        let b = site
            .push_page(SitePage {
                url: b_url,
                kind: PageKind::Redirect { to: a },
                title: format!("session {i}b"),
                out: Vec::new(),
            })
            .expect("loop URLs are fresh");
        site.set_kind(a, PageKind::Redirect { to: b });
        loop_ids.push(a);
        loop_ids.push(b);
    }

    // The directory: a flat link list over the whole field.
    site.set_kind(entry, PageKind::Html(HtmlRole::Article { section: 0 }));
    for &id in farm_ids.iter().chain(&loop_ids) {
        site.add_out_link(entry, OutLink { to: id, slot: Slot::ListItem });
    }
    report.farm_ids.push(entry);
    report.note(site, entry);
    for &id in &farm_ids {
        report.farm_ids.push(id);
        report.note(site, id);
    }
    for &id in &loop_ids {
        report.loop_ids.push(id);
        report.note(site, id);
    }
}

/// One near-duplicate cluster: `entry` becomes an "archive" index linking
/// `copies` clones of a clean article — same section, same title, same
/// out-links, fresh URLs. Only the per-page seeded filler differs, so the
/// clones sketch near-identically.
fn build_dup_cluster(
    site: &mut Website,
    cluster: usize,
    copies: usize,
    entry: PageId,
    origin: &str,
    rng: &mut StdRng,
    report: &mut HazardReport,
) {
    let articles: Vec<PageId> = (0..site.len() as PageId)
        .filter(|&id| {
            matches!(site.page(id).kind, PageKind::Html(HtmlRole::Article { .. }))
                && !report.is_hazard_url(&site.page(id).url)
        })
        .collect();
    if articles.is_empty() {
        return;
    }
    let original = articles[rng.gen_range(0..articles.len())];
    let (role, title, out) = {
        let p = site.page(original);
        let PageKind::Html(role) = p.kind else { unreachable!("articles are HTML") };
        (role, p.title.clone(), p.out.clone())
    };
    let mut clone_ids = Vec::with_capacity(copies);
    for c in 0..copies.max(1) {
        let id = site
            .push_page(SitePage {
                url: format!("{origin}/archive/{cluster}/{c}/"),
                kind: PageKind::Html(role),
                title: title.clone(),
                out: out.clone(),
            })
            .expect("archive URLs are fresh");
        clone_ids.push(id);
    }
    site.set_kind(entry, PageKind::Html(HtmlRole::Article { section: 0 }));
    for &id in &clone_ids {
        site.add_out_link(entry, OutLink { to: id, slot: Slot::ListItem });
    }
    report.dup_ids.push(entry);
    report.note(site, entry);
    for &id in &clone_ids {
        report.dup_ids.push(id);
        report.note(site, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::build::build_site;
    use crate::gen::render::render_page;
    use crate::gen::spec::SiteSpec;

    fn hazard_site(spec: HazardSpec) -> (Website, HazardReport) {
        let mut site = build_site(&SiteSpec::demo(400), 5);
        let report = apply_hazards(&mut site, &spec, 99);
        (site, report)
    }

    #[test]
    fn apply_is_deterministic() {
        let (a, ra) = hazard_site(HazardSpec::scaled(400));
        let (b, rb) = hazard_site(HazardSpec::scaled(400));
        assert_eq!(a.len(), b.len());
        assert_eq!(ra.len(), rb.len());
        let urls_a: Vec<&String> = a.pages().iter().map(|p| &p.url).collect();
        let urls_b: Vec<&String> = b.pages().iter().map(|p| &p.url).collect();
        assert_eq!(urls_a, urls_b, "same (site, spec, seed) must weave identically");
    }

    #[test]
    fn clean_pages_keep_their_rendered_bytes() {
        // The weaving contract: no clean HTML page's body changes, because
        // hazards enter only through repurposed error URLs.
        let clean = build_site(&SiteSpec::demo(400), 5);
        let (hazard, report) = hazard_site(HazardSpec::scaled(400));
        for id in 0..clean.len() as PageId {
            if !matches!(clean.page(id).kind, PageKind::Html(_)) {
                continue;
            }
            assert!(!report.is_hazard_url(&clean.page(id).url), "clean HTML converted");
            assert_eq!(
                render_page(&clean, id),
                render_page(&hazard, id),
                "clean page {id} must render byte-identically under hazards"
            );
        }
    }

    #[test]
    fn trap_is_reachable_deep_and_closed() {
        let (site, report) = hazard_site(HazardSpec::trap_only(64));
        assert!(report.trap_ids.len() >= 64, "entrance + 64 calendar pages");
        let depths = site.source_depths();
        let reachable = report
            .trap_ids
            .iter()
            .filter(|&&id| depths[id as usize].is_some())
            .count();
        assert_eq!(reachable, report.trap_ids.len(), "the whole trap is reachable");
        // The trap's depth dwarfs the clean site's: following only "next
        // month" takes ~n hops while skip links halve it — either way far
        // deeper than the demo spec's ~4.5 mean target depth.
        let max_trap_depth =
            report.trap_ids.iter().filter_map(|&id| depths[id as usize]).max().unwrap();
        assert!(max_trap_depth > 8, "trap must be deep: {max_trap_depth}");
        // Closed: every trap out-link stays in the trap.
        for &id in &report.trap_ids {
            if let PageKind::Html(_) = site.page(id).kind {
                for l in &site.page(id).out {
                    assert!(report.is_hazard_url(&site.page(l.to).url), "trap leaks");
                }
            }
        }
    }

    #[test]
    fn redirect_loops_cycle_and_farm_lands_on_clean_pages() {
        let (site, report) = hazard_site(HazardSpec::redirects_only(12, 2));
        assert_eq!(report.loop_ids.len(), 4, "two 2-cycles");
        for pair in report.loop_ids.chunks(2) {
            let PageKind::Redirect { to: ab } = site.page(pair[0]).kind else { panic!() };
            let PageKind::Redirect { to: ba } = site.page(pair[1]).kind else { panic!() };
            assert_eq!(ab, pair[1]);
            assert_eq!(ba, pair[0], "loop must cycle");
        }
        // Every farm chain resolves (within the farm) to a clean page.
        for &id in report.farm_ids.iter().skip(1) {
            let mut cur = id;
            let mut hops = 0;
            while let PageKind::Redirect { to } = site.page(cur).kind {
                cur = to;
                hops += 1;
                assert!(hops <= 8, "farm chains are short");
            }
            assert!(!report.is_hazard_url(&site.page(cur).url), "farm tail must be clean");
        }
    }

    #[test]
    fn soft_404s_answer_200_with_no_links() {
        let (site, report) = hazard_site(HazardSpec::soft_404s_only(10));
        assert_eq!(report.soft404_ids.len(), 10);
        for &id in &report.soft404_ids {
            assert!(matches!(site.page(id).kind, PageKind::Html(_)), "soft-404 serves 200 HTML");
            assert!(site.page(id).out.is_empty(), "soft-404s are dead ends");
            let html = render_page(&site, id);
            assert!(html.contains("<html>") || html.contains("<!DOCTYPE"), "renders a body");
        }
    }

    #[test]
    fn dup_clones_share_links_and_titles_with_their_original() {
        let (site, report) = hazard_site(HazardSpec::dups_only(2, 4));
        // Per cluster: 1 index page + 4 clones.
        assert_eq!(report.dup_ids.len(), 2 * 5);
        for chunk in report.dup_ids.chunks(5) {
            let clones = &chunk[1..];
            let first = site.page(clones[0]);
            for &c in clones {
                let p = site.page(c);
                assert_eq!(p.title, first.title, "clones share the title");
                assert_eq!(p.out, first.out, "clones share the out-links");
            }
            // Near- but not exact-duplicate: the seeded filler differs.
            let a = render_page(&site, clones[0]);
            let b = render_page(&site, clones[1]);
            assert_ne!(a, b, "clones must differ somewhere (filler prose)");
        }
    }

    #[test]
    fn hazard_counts_clamp_to_available_entrances() {
        // demo(400) has ~32 error URLs; ask for far more soft-404s than
        // that and the overlay must clamp, not panic.
        let (_, report) = hazard_site(HazardSpec::soft_404s_only(10_000));
        assert!(report.soft404_ids.len() < 10_000);
        assert!(!report.is_empty());
    }
}
