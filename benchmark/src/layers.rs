//! From spans, wrapper records and replays to the per-layer metrics.

use crate::registry;
use crate::replay;
use crate::spans::{self, Span};
use crate::wrap::{
    CountingObserver, StrategyRec, TracedStrategy, TracedTransport, TransportNames, TransportRec,
};
use sb_crawler::{CrawlConfig, CrawlOutcome, CrawlSession, MemGauges, Strategy};
use sb_html::LinkNeeds;
use sb_httpsim::transport::Transport;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer metric values by registry name. Names the registry does not
/// declare are refused; declared names never set read as 0 ("the workload
/// does not exercise this layer").
#[derive(Debug, Default, Clone)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            registry::per_layer(name).is_some(),
            "undeclared layer metric {name}"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Peak frontier residency over a crawl's steps.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FrontierPeak {
    pub in_mem: usize,
    pub spilled: usize,
}

impl FrontierPeak {
    fn note(&mut self, mem: &MemGauges) {
        self.in_mem = self.in_mem.max(mem.frontier_len - mem.frontier_spilled);
        self.spilled = self.spilled.max(mem.frontier_spilled);
    }
}

/// Steps a session to its end and reports the frontier's peaks.
pub fn drive(session: &mut CrawlSession<'_>) -> FrontierPeak {
    let mut peak = FrontierPeak::default();
    while !session.is_finished() {
        peak.note(&session.step().mem);
    }
    peak
}

/// Everything one fully wrapped session left behind, spans excepted (the
/// caller owns the recording, which may cover several sessions).
pub struct TracedSession {
    pub outcome: CrawlOutcome,
    pub wall_s: f64,
    pub needs: LinkNeeds,
    pub transport: TransportRec,
    pub strategy: StrategyRec,
    pub observer: CountingObserver,
    pub peak: FrontierPeak,
}

/// Runs one session with transport, strategy and observer wrapped and one
/// `core.session.step` span rooting every step. The server behind
/// `transport` is wrapped by the caller, who also starts and finishes the
/// span recording.
pub fn traced_session<'a>(
    transport: Box<dyn Transport + 'a>,
    names: &'static TransportNames,
    html_stride: u64,
    strategy: Box<dyn Strategy>,
    cfg: &CrawlConfig,
    root: &str,
) -> Result<TracedSession, String> {
    let transport = TracedTransport::new(transport, names, html_stride);
    let transport_rec = transport.rec();
    let mut strategy = TracedStrategy::new(strategy);
    let needs = strategy.link_needs();
    let mut observer = CountingObserver::default();
    let mut peak = FrontierPeak::default();

    let started = Instant::now();
    let mut session =
        CrawlSession::with_transport(Box::new(transport), None, root, &mut strategy, cfg)
            .map_err(|e| format!("traced session: {e}"))?
            .observe(&mut observer);
    while !session.is_finished() {
        let _step = spans::span("core.session.step");
        peak.note(&session.step().mem);
    }
    let outcome = session.finish();
    let wall_s = started.elapsed().as_secs_f64();

    let transport = std::mem::take(&mut *transport_rec.borrow_mut());
    Ok(TracedSession {
        outcome,
        wall_s,
        needs,
        transport,
        strategy: strategy.take_rec(),
        observer,
        peak,
    })
}

/// The crawl-path layers every workload reports, from one span recording
/// that covered `sessions` (and nothing else under a step span).
///
/// `traced_wall_s` is the wall the recording covered; the named layers are
/// compared against it for `trace.attributed_share`.
pub fn fill_crawl_layers(
    values: &mut LayerValues,
    threads: &[Vec<Span>],
    sessions: &[TracedSession],
    server_body_bytes: u64,
    traced_wall_s: f64,
) {
    let agg = spans::aggregate(threads);
    let of = |name: &str| agg.get(name).copied().unwrap_or_default();

    let (get, head) = (of("httpsim.server.get"), of("httpsim.server.head"));
    values.set("httpsim.server.get_calls", get.calls as f64);
    values.set("httpsim.server.get_ns", get.total_ns as f64);
    values.set("httpsim.server.head_calls", head.calls as f64);
    values.set("httpsim.server.head_ns", head.total_ns as f64);
    values.set("httpsim.server.body_bytes", server_body_bytes as f64);

    let (submit, poll) = (of("httpsim.transport.submit"), of("httpsim.transport.poll"));
    values.set("httpsim.transport.submit_calls", submit.calls as f64);
    values.set("httpsim.transport.submit_self_ns", submit.self_ns as f64);
    values.set("httpsim.transport.poll_calls", poll.calls as f64);
    values.set("httpsim.transport.poll_ns", poll.total_ns as f64);
    values.set(
        "httpsim.transport.head_self_ns",
        of("httpsim.transport.head").self_ns as f64,
    );
    let sum = |f: fn(&TransportRec) -> u64| sessions.iter().map(|s| f(&s.transport)).sum::<u64>();
    let (submits, deliveries) = (sum(|t| t.submits), sum(|t| t.deliveries));
    let attempts = sum(|t| t.attempts);
    values.set(
        "httpsim.transport.mean_in_flight",
        ratio(sum(|t| t.in_flight_sum), submits),
    );
    values.set(
        "httpsim.transport.attempts_per_request",
        ratio(attempts, deliveries),
    );

    values.set(
        "httpsim.hazard.retried",
        attempts.saturating_sub(deliveries) as f64,
    );
    let abandoned = |f: fn(&sb_crawler::AbandonCounts) -> u64| {
        sessions
            .iter()
            .map(|s| f(&s.outcome.abandoned))
            .sum::<u64>() as f64
    };
    values.set("httpsim.hazard.abandoned_http", abandoned(|a| a.http_error));
    values.set("httpsim.hazard.abandoned_timeout", abandoned(|a| a.timeout));
    values.set(
        "httpsim.hazard.abandoned_retries_exhausted",
        abandoned(|a| a.retries_exhausted),
    );
    values.set(
        "httpsim.hazard.abandoned_quarantined",
        abandoned(|a| a.quarantined),
    );

    // HTML: each session's sampled per-page means scaled to its page count
    // (a sample is every n-th page, so the scaling is unbiased).
    let mut html_pages = 0u64;
    let (mut bytes, mut links) = (0.0, 0.0);
    let (mut tokenize_ns, mut parse_ns, mut extract_ns) = (0.0, 0.0, 0.0);
    for s in sessions {
        let r = replay::html(&s.transport.html_sample, s.needs);
        let n = s.transport.html_pages as f64;
        html_pages += s.transport.html_pages;
        bytes += n * r.bytes_per_page;
        links += n * r.links_per_page;
        tokenize_ns += n * r.tokenize_ns_per_page;
        parse_ns += n * r.parse_ns_per_page;
        extract_ns += n * r.extract_ns_per_page;
    }
    let per_page = |total: f64| {
        if html_pages == 0 {
            0.0
        } else {
            total / html_pages as f64
        }
    };
    values.set("html.pages", html_pages as f64);
    values.set("html.bytes_per_page", per_page(bytes));
    values.set("html.links_per_page", per_page(links));
    values.set("html.tokenize_ns_per_page", per_page(tokenize_ns));
    values.set("html.parse_ns_per_page", per_page(parse_ns));
    values.set("html.extract_ns_per_page", per_page(extract_ns));
    // What `process_html` spent in `sb_html`, all pages.
    let html_ns = parse_ns + extract_ns;

    // The step span's self time is what no wrapper saw: HTML (replayed
    // above) plus intern/visited/bookkeeping/emit, the residual.
    let step = of("core.session.step");
    let residual_ns = (step.self_ns as f64 - html_ns).max(0.0);
    let links_seen = links;
    let links_admitted: u64 = sessions.iter().map(|s| s.observer.links_admitted).sum();
    values.set("core.session.step_calls", step.calls as f64);
    values.set("core.session.step_ns", step.total_ns as f64);
    values.set("core.session.residual_ns", residual_ns);
    values.set(
        "core.session.events_emitted",
        sessions.iter().map(|s| s.observer.events).sum::<u64>() as f64,
    );
    values.set("core.session.links_seen", links_seen);
    values.set(
        "core.session.link_admit_share",
        if links_seen > 0.0 {
            links_admitted as f64 / links_seen
        } else {
            0.0
        },
    );

    let (next, batch) = (of("core.strategy.next"), of("core.strategy.select_batch"));
    let decide = of("core.strategy.decide");
    values.set("core.strategy.next_calls", next.calls as f64);
    values.set("core.strategy.next_ns", next.total_ns as f64);
    values.set("core.strategy.select_batch_calls", batch.calls as f64);
    values.set("core.strategy.select_batch_ns", batch.total_ns as f64);
    values.set("core.strategy.decide_calls", decide.calls as f64);
    values.set("core.strategy.decide_self_ns", decide.self_ns as f64);
    values.set(
        "core.strategy.feedback_ns",
        of("core.strategy.feedback").total_ns as f64,
    );
    values.set(
        "core.strategy.on_fetched_ns",
        of("core.strategy.on_fetched").total_ns as f64,
    );
    values.set(
        "core.strategy.frontier_peak",
        sessions
            .iter()
            .map(|s| s.strategy.frontier_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    values.set(
        "core.strategy.fetch_now_hit_share",
        ratio(
            sessions.iter().map(|s| s.strategy.fetch_now_hits).sum(),
            sessions.iter().map(|s| s.strategy.fetch_now).sum(),
        ),
    );

    // Named layers: every wrapped call's self time, plus the replayed HTML.
    let named_ns: u64 = agg
        .iter()
        .filter(|(name, _)| name.starts_with("httpsim.") || name.starts_with("core.strategy."))
        .map(|(_, a)| a.self_ns)
        .sum();
    let traced_ns = traced_wall_s * 1e9;
    values.set(
        "trace.attributed_share",
        if traced_ns > 0.0 {
            (named_ns as f64 + html_ns).min(traced_ns) / traced_ns
        } else {
            0.0
        },
    );
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `trace.overhead_share`: traced wall over untraced wall, minus one.
pub fn set_overhead(values: &mut LayerValues, traced_wall_s: f64, untraced_wall_s: f64) {
    values.set(
        "trace.overhead_share",
        if untraced_wall_s > 0.0 {
            traced_wall_s / untraced_wall_s - 1.0
        } else {
            0.0
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undeclared_names_are_refused_and_unset_names_read_zero() {
        let mut v = LayerValues::default();
        v.set("trace.overhead_share", 0.25);
        v.set("html.pages", f64::NAN);
        assert_eq!(v.get("trace.overhead_share"), 0.25);
        assert_eq!(v.get("html.pages"), 0.0);
        assert_eq!(v.get("ml.trainings"), 0.0);
        let refused =
            std::panic::catch_unwind(|| LayerValues::default().set("no.such.metric", 1.0));
        assert!(refused.is_err());
    }
}
