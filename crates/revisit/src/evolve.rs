//! Evolving websites: one generated site, many epochs.
//!
//! [`EvolvingSite::evolve`] applies a [`ChangeModel`] to a base
//! [`Website`], materialising one snapshot per epoch together with the
//! ground-truth [`EpochEvents`] of each transition. [`EvolvingServer`]
//! serves whichever snapshot is current, so a revisit driver can flip the
//! clock forward with [`EvolvingServer::set_epoch`] between crawls — the
//! crawler itself never sees anything but HTTP.
//!
//! Mutations are confined to a stable set of *hot sections* (drawn once per
//! evolution): catalogs there keep gaining dataset links, occasional new
//! articles appear with their own downloads, a fraction of targets is
//! refreshed in place, and a trickle of article pages dies with HTTP 410.
//! Everything is deterministic in `(base, model, seed)`.

use crate::change::{ChangeModel, EpochEvents};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_httpsim::{HeadResponse, HttpServer, Response, SiteServer};
use sb_webgraph::gen::build::{lognormal_params, poisson_ish, sample_lognormal};
use sb_webgraph::gen::{HtmlRole, OutLink, PageId, PageKind, SitePage, SiteSource, Slot, Website};
use sb_webgraph::mime::mime_for_extension;
use sb_webgraph::url::Url;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A site and its successive snapshots. Epoch 0 is the unmodified base.
#[derive(Debug, Clone)]
pub struct EvolvingSite {
    snapshots: Vec<Arc<Website>>,
    /// `events[e]` records the transition `e−1 → e`; `events[0]` is empty.
    events: Vec<EpochEvents>,
    hot_sections: Vec<u16>,
}

impl EvolvingSite {
    /// Applies `model` to `base`, producing `model.epochs` snapshots.
    pub fn evolve(base: Website, model: &ChangeModel, seed: u64) -> Self {
        let epochs = model.epochs.max(1);
        let hot_sections = draw_hot_sections(&base, model, seed);
        let mut snapshots = vec![Arc::new(base)];
        let mut events = vec![EpochEvents::default()];
        for e in 1..epochs {
            let mut site = (*snapshots[e - 1]).clone();
            let mut ev = EpochEvents::default();
            let mut rng =
                StdRng::seed_from_u64(seed ^ (e as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            mutate_epoch(&mut site, model, &hot_sections, e, &mut rng, &mut ev);
            snapshots.push(Arc::new(site));
            events.push(ev);
        }
        EvolvingSite { snapshots, events, hot_sections }
    }

    /// Number of materialised snapshots (≥ 1).
    pub fn epochs(&self) -> usize {
        self.snapshots.len()
    }

    /// The site as it looks at epoch `e`.
    pub fn snapshot(&self, e: usize) -> &Arc<Website> {
        &self.snapshots[e]
    }

    /// Ground truth of the transition into epoch `e` (empty for `e = 0`).
    pub fn events(&self, e: usize) -> &EpochEvents {
        &self.events[e]
    }

    /// The sections where change concentrates.
    pub fn hot_sections(&self) -> &[u16] {
        &self.hot_sections
    }

    /// All target URLs published after epoch 0, up to and including `e`.
    pub fn new_target_urls_through(&self, e: usize) -> HashSet<String> {
        let mut out = HashSet::new();
        for ev in self.events.iter().take(e + 1) {
            out.extend(ev.new_target_urls.iter().cloned());
        }
        out
    }
}

fn draw_hot_sections(base: &Website, model: &ChangeModel, seed: u64) -> Vec<u16> {
    let n_sections = base.spec().structure.sections.max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
    let mut all: Vec<u16> = (0..n_sections as u16).collect();
    // Partial Fisher–Yates: the first `hot` entries are a uniform sample.
    let hot = model.hot_sections.clamp(1, n_sections);
    for i in 0..hot {
        let j = rng.gen_range(i..all.len());
        all.swap(i, j);
    }
    all.truncate(hot);
    all
}

fn mutate_epoch(
    site: &mut Website,
    model: &ChangeModel,
    hot: &[u16],
    epoch: usize,
    rng: &mut StdRng,
    ev: &mut EpochEvents,
) {
    // Existing ids snapshot: additions below must not be re-mutated.
    let n_before = site.len() as PageId;

    // --- in-place churn first (it draws from the pre-existing page set) ---
    if model.target_update_frac > 0.0 {
        for id in 0..n_before {
            let PageKind::Target { ext, mime, declared_size, planted_tables } =
                site.page(id).kind
            else {
                continue;
            };
            if rng.gen::<f64>() >= model.target_update_frac {
                continue;
            }
            let factor = rng.gen_range(0.8..1.3);
            let new_size = ((declared_size as f64 * factor) as u64).max(512);
            let new_tables =
                if rng.gen::<f64>() < 0.2 { planted_tables.saturating_add(1) } else { planted_tables };
            site.set_kind(
                id,
                PageKind::Target {
                    ext,
                    mime,
                    declared_size: new_size,
                    planted_tables: new_tables,
                },
            );
            ev.updated_target_urls.push(site.page(id).url.clone());
        }
    }
    if model.death_frac > 0.0 {
        for id in 0..n_before {
            let PageKind::Html(HtmlRole::Article { .. }) = site.page(id).kind else { continue };
            if rng.gen::<f64>() < model.death_frac {
                site.set_kind(id, PageKind::Error { status: 410 });
                ev.died_urls.push(site.page(id).url.clone());
            }
        }
    }

    // --- publication: new targets on hot catalogs, new articles ---
    let catalogs = hot_catalogs(site, hot, n_before);
    let mut changed: HashSet<PageId> = HashSet::new();

    let n_new = poisson_ish(rng, model.new_targets_per_epoch);
    for i in 0..n_new {
        let Some(&list) = pick(rng, &catalogs) else { break };
        if let Some(target) = fresh_target(site, rng, epoch, i, ev) {
            site.add_out_link(list, OutLink { to: target, slot: Slot::DatasetItem });
            changed.insert(list);
        }
    }

    let n_articles = poisson_ish(rng, model.new_articles_per_epoch);
    for i in 0..n_articles {
        let Some(&list) = pick(rng, &catalogs) else { break };
        let section = site.page(list).kind.clone();
        let section = match section {
            PageKind::Html(role) => role.section(),
            _ => 0,
        };
        let url = match update_url(site, epoch, &format!("note-{i}"), "html") {
            Some(u) => u,
            None => continue,
        };
        let article = match site.push_page(SitePage {
            url: url.clone(),
            kind: PageKind::Html(HtmlRole::Article { section }),
            title: format!("Release note {epoch}.{i}"),
            out: Vec::new(),
        }) {
            Ok(id) => id,
            Err(_) => continue,
        };
        ev.new_html_urls.push(url);
        let n_downloads = 1 + usize::from(rng.gen::<f64>() < 0.5);
        for j in 0..n_downloads {
            if let Some(target) = fresh_target(site, rng, epoch, 1000 * (i + 1) + j, ev) {
                site.add_out_link(article, OutLink { to: target, slot: Slot::Download });
            }
        }
        site.add_out_link(list, OutLink { to: article, slot: Slot::ListItem });
        changed.insert(list);
    }

    for id in changed {
        ev.changed_html_urls.push(site.page(id).url.clone());
    }
    ev.changed_html_urls.sort();
}

/// Catalog (list) pages in hot sections; falls back to any list page, then
/// to the root, so tiny sites still evolve.
fn hot_catalogs(site: &Website, hot: &[u16], n_before: PageId) -> Vec<PageId> {
    let lists = |filter_hot: bool| -> Vec<PageId> {
        (0..n_before)
            .filter(|&id| match site.page(id).kind {
                PageKind::Html(HtmlRole::List { section, .. }) => {
                    !filter_hot || hot.contains(&section)
                }
                _ => false,
            })
            .collect()
    };
    let in_hot = lists(true);
    if !in_hot.is_empty() {
        return in_hot;
    }
    let any = lists(false);
    if !any.is_empty() {
        return any;
    }
    vec![site.root()]
}

fn pick<'a, T, R: Rng + ?Sized>(rng: &mut R, xs: &'a [T]) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        xs.get(rng.gen_range(0..xs.len()))
    }
}

/// Creates a brand-new target page with spec-calibrated extension, size and
/// planted-table count, records it in `ev`, and returns its id.
fn fresh_target(
    site: &mut Website,
    rng: &mut StdRng,
    epoch: usize,
    i: usize,
    ev: &mut EpochEvents,
) -> Option<PageId> {
    let spec = site.spec().clone();
    let ext = pick_ext(rng, spec.palette);
    let mime = mime_for_extension(ext).unwrap_or("application/octet-stream");
    let (mu, sigma) = lognormal_params(spec.target_size_mb);
    let size_mb = sample_lognormal(rng, mu, sigma).clamp(0.001, 64.0);
    let declared_size = ((size_mb * 1_048_576.0) as u64).max(512);
    let planted_tables = if rng.gen::<f64>() < spec.sd_yield {
        spec.sd_per_target.round().max(1.0) as u16
    } else {
        0
    };
    let url = update_url(site, epoch, &format!("dataset-{i}"), ext)?;
    let id = site
        .push_page(SitePage {
            url: url.clone(),
            kind: PageKind::Target { ext, mime, declared_size, planted_tables },
            title: format!("Data release {epoch}.{i}"),
            out: Vec::new(),
        })
        .ok()?;
    ev.new_target_urls.push(url);
    Some(id)
}

fn pick_ext<R: Rng + ?Sized>(rng: &mut R, palette: sb_webgraph::gen::MimePalette) -> &'static str {
    let total: f64 = palette.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen::<f64>() * total;
    for (ext, w) in palette {
        x -= w;
        if x <= 0.0 {
            return ext;
        }
    }
    palette.last().map(|(e, _)| *e).unwrap_or("pdf")
}

/// Synthesises a site-absolute URL under `/updates/e{epoch}/`, unique by
/// construction (epoch + slug); returns `None` only on a malformed root.
fn update_url(site: &Website, epoch: usize, slug: &str, ext: &str) -> Option<String> {
    let root = Url::parse(&site.page(site.root()).url).ok()?;
    let path = format!("/updates/e{epoch}/{slug}.{ext}");
    Some(root.join(&path).ok()?.as_string())
}

/// Serves an [`EvolvingSite`], one snapshot at a time. Epoch switching is
/// interior-mutable so a shared server handle can be advanced between
/// crawl rounds.
pub struct EvolvingServer {
    servers: Vec<SiteServer>,
    epoch: AtomicUsize,
}

impl EvolvingServer {
    pub fn new(site: &EvolvingSite) -> Self {
        EvolvingServer {
            servers: (0..site.epochs()).map(|e| SiteServer::shared(site.snapshot(e).clone())).collect(),
            epoch: AtomicUsize::new(0),
        }
    }

    /// Advances (or rewinds) the clock. Panics on an out-of-range epoch.
    pub fn set_epoch(&self, e: usize) {
        assert!(e < self.servers.len(), "epoch {e} out of range");
        self.epoch.store(e, Ordering::SeqCst);
    }

    pub fn epoch(&self) -> usize {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The origin server of the current epoch.
    pub fn current(&self) -> &SiteServer {
        &self.servers[self.epoch()]
    }
}

impl HttpServer for EvolvingServer {
    fn head(&self, url: &str) -> HeadResponse {
        self.current().head(url)
    }

    fn get(&self, url: &str) -> Response {
        self.current().get(url)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_webgraph::gen::render::render_page;
    use sb_webgraph::gen::SiteSource;
    use sb_webgraph::{build_site, SiteSpec};

    fn evolved(pages: usize, seed: u64, model: &ChangeModel) -> EvolvingSite {
        EvolvingSite::evolve(build_site(&SiteSpec::demo(pages), seed), model, seed)
    }

    #[test]
    fn deterministic_in_seed() {
        let m = ChangeModel::default();
        let a = evolved(200, 3, &m);
        let b = evolved(200, 3, &m);
        assert_eq!(a.epochs(), b.epochs());
        for e in 0..a.epochs() {
            assert_eq!(a.events(e).new_target_urls, b.events(e).new_target_urls);
            assert_eq!(a.events(e).died_urls, b.events(e).died_urls);
            assert_eq!(a.snapshot(e).len(), b.snapshot(e).len());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let m = ChangeModel { new_targets_per_epoch: 12.0, ..ChangeModel::default() };
        let a = evolved(200, 3, &m);
        let b = evolved(200, 4, &m);
        let urls_a: Vec<_> = (0..a.epochs()).flat_map(|e| a.events(e).new_target_urls.clone()).collect();
        let urls_b: Vec<_> = (0..b.epochs()).flat_map(|e| b.events(e).new_target_urls.clone()).collect();
        assert_ne!(urls_a, urls_b);
    }

    #[test]
    fn page_count_is_monotone_and_epoch_zero_untouched() {
        let m = ChangeModel::default();
        let base = build_site(&SiteSpec::demo(200), 9);
        let base_len = base.len();
        let site = EvolvingSite::evolve(base, &m, 9);
        assert_eq!(site.snapshot(0).len(), base_len);
        assert!(site.events(0).is_empty());
        for e in 1..site.epochs() {
            assert!(site.snapshot(e).len() >= site.snapshot(e - 1).len());
        }
    }

    #[test]
    fn new_targets_are_reachable_in_their_snapshot() {
        let m = ChangeModel { new_targets_per_epoch: 10.0, ..ChangeModel::default() };
        let site = evolved(300, 5, &m);
        let mut seen_any = false;
        for e in 1..site.epochs() {
            let snap = site.snapshot(e);
            let depths = snap.source_depths();
            for url in &site.events(e).new_target_urls {
                seen_any = true;
                let id = snap.lookup(url).expect("new target is registered");
                assert!(
                    depths[id as usize].is_some(),
                    "new target {url} must be linked from a reachable catalog"
                );
            }
        }
        assert!(seen_any, "the model must publish at least one target over 5 epochs");
    }

    #[test]
    fn changed_html_pages_actually_change() {
        let m = ChangeModel { new_targets_per_epoch: 10.0, ..ChangeModel::default() };
        let site = evolved(300, 7, &m);
        for e in 1..site.epochs() {
            let prev = site.snapshot(e - 1);
            let cur = site.snapshot(e);
            for url in &site.events(e).changed_html_urls {
                let id_prev = prev.lookup(url).expect("changed page pre-exists");
                let id_cur = cur.lookup(url).expect("changed page persists");
                assert_ne!(
                    render_page(&**prev, id_prev),
                    render_page(&**cur, id_cur),
                    "{url} is recorded as changed but renders identically"
                );
            }
        }
    }

    #[test]
    fn died_pages_flip_to_410() {
        let m = ChangeModel { death_frac: 0.2, ..ChangeModel::default() };
        let site = evolved(300, 11, &m);
        let server = EvolvingServer::new(&site);
        let mut killed = 0;
        for e in 1..site.epochs() {
            for url in &site.events(e).died_urls {
                killed += 1;
                server.set_epoch(e - 1);
                // May have died in an even earlier epoch only if listed there;
                // within this transition it must have been alive before.
                assert_eq!(server.get(url).status, 200, "{url} alive at epoch {}", e - 1);
                server.set_epoch(e);
                assert_eq!(server.get(url).status, 410, "{url} dead at epoch {e}");
            }
        }
        assert!(killed > 0, "death_frac 0.2 over several epochs must kill something");
    }

    #[test]
    fn updated_targets_change_declared_length() {
        let m = ChangeModel { target_update_frac: 0.5, ..ChangeModel::default() };
        let site = evolved(300, 13, &m);
        let server = EvolvingServer::new(&site);
        let mut checked = 0;
        for e in 1..site.epochs() {
            for url in site.events(e).updated_target_urls.iter().take(5) {
                server.set_epoch(e - 1);
                let before = server.head(url).headers.content_length;
                server.set_epoch(e);
                let after = server.head(url).headers.content_length;
                if before != after {
                    checked += 1;
                }
            }
        }
        // The size factor range [0.8, 1.3) makes an unchanged length
        // possible but rare; across epochs at 50 % update rate some must
        // differ.
        assert!(checked > 0, "updated targets should change Content-Length");
    }

    #[test]
    fn server_defaults_to_epoch_zero_and_switches() {
        let m = ChangeModel::default();
        let site = evolved(150, 2, &m);
        let server = EvolvingServer::new(&site);
        assert_eq!(server.epoch(), 0);
        server.set_epoch(site.epochs() - 1);
        assert_eq!(server.epoch(), site.epochs() - 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn server_rejects_out_of_range_epoch() {
        let m = ChangeModel::default();
        let site = evolved(100, 2, &m);
        EvolvingServer::new(&site).set_epoch(99);
    }

    #[test]
    fn hot_sections_within_spec_range() {
        let m = ChangeModel { hot_sections: 3, ..ChangeModel::default() };
        let site = evolved(300, 21, &m);
        let n = site.snapshot(0).spec().structure.sections as u16;
        assert!(!site.hot_sections().is_empty());
        for &s in site.hot_sections() {
            assert!(s < n);
        }
    }

    #[test]
    fn publication_only_has_no_churn_events() {
        let m = ChangeModel::publication_only(4, 6.0);
        let site = evolved(250, 17, &m);
        for e in 1..site.epochs() {
            assert!(site.events(e).died_urls.is_empty());
            assert!(site.events(e).updated_target_urls.is_empty());
        }
    }
}
