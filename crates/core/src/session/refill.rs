//! Filling the transport window: cascade work, refreshes and strategy
//! selections, each behind the stop checks and budget gates.

use super::{Budget, CrawlSession, Job, Phase};
use crate::events::{AbandonReason, CrawlEvent, FinishReason};
use crate::strategy::{SelUrl, Selection};
use sb_httpsim::transport::Request;
use sb_webgraph::url::Url;

impl CrawlSession<'_> {
    /// Submits at most one request, respecting every refill rule (cascade
    /// priority, stop checks, budget blocking). Returns whether a fetch
    /// was dispatched. This is the shared-pool plumbing: an external
    /// driver ([`crate::fleet::FleetMode::SharedPool`]) rations the pool's
    /// *global* window one slot at a time across many sessions —
    /// least-elapsed-host first — instead of letting one session's
    /// [`CrawlSession::step`] swallow every free slot. A `false` return
    /// means this session cannot use a slot right now (finished, window
    /// full, budget-blocked, or frontier dry pending in-flight answers) —
    /// its state can change only after its own next
    /// [`CrawlSession::drain_completions`].
    pub fn refill_one(&mut self) -> bool {
        self.refill_limit(1) > 0
    }

    /// Fills the transport window with at most `limit` dispatches:
    /// pending cascade work first (Algorithm 4's FIFO), then — once the
    /// cascade is drained — the next selection source: root fetch,
    /// refreshes, then strategy picks. Mirrors the sequential engine's
    /// check order exactly: the stop checks run before every selection
    /// pull, while cascade submissions re-check only budget/OOM (as the
    /// cascade loop did). Returns dispatched fetches (synchronous
    /// unparseable-selection fetches count — they consume budget like any
    /// dispatch, just not a window slot).
    pub(super) fn refill_limit(&mut self, limit: usize) -> usize {
        let mut dispatched = 0usize;
        loop {
            if dispatched >= limit || self.is_finished() || !self.transport.has_capacity() {
                return dispatched;
            }
            if let Phase::Root = self.phase {
                let root_id = self.intern_at_depth(&self.root.clone(), 0);
                let snap = self.snapshot();
                let root = self.visited.text(root_id);
                self.hub.emit(&snap, &CrawlEvent::SessionStarted { root });
                self.fetch_robots();
                self.phase = Phase::Steady;
                self.steps += 1;
                if !(self.budget_exhausted() || self.aborted_oom) {
                    self.submit(Job::fresh(root_id, 0, None));
                    dispatched += 1;
                }
                continue;
            }
            if self.budget_exhausted() || self.aborted_oom {
                // Mid-cascade exhaustion drops the remaining queue, exactly
                // as the sequential cascade loop did. The stop reason fires
                // once the pipeline drains.
                self.pending.clear();
                if self.transport.in_flight() == 0 {
                    if let Some(reason) = self.stop_check() {
                        self.finish_with(reason);
                    }
                }
                return dispatched;
            }
            if self.budget_blocked() {
                // In-flight work already covers the remaining request or
                // volume budget; wait for delivery instead of overshooting.
                return dispatched;
            }
            if let Some(job) = self.pending.pop_front() {
                self.submit(job);
                dispatched += 1;
                continue;
            }
            if let Some((url, prior)) = self.refresh_queue.pop_front() {
                // Refresh selections go ahead of fresh discovery picks:
                // staleness is paid for in reader-visible age, discovery
                // only in coverage. An unparseable queued URL (caller bug)
                // is dropped as a failed refresh rather than fetched.
                let Ok(u) = Url::parse(&url) else {
                    self.refresh_stats.failed += 1;
                    continue;
                };
                let id = self.intern_at_depth(&u, 0);
                let depth = self.depths[id as usize];
                self.steps += 1;
                self.submit(Job { refresh: Some(prior), ..Job::fresh(id, depth, None) });
                dispatched += 1;
                continue;
            }
            if let Some(sel) = self.batch_buf.pop_front() {
                // Already pulled from the strategy: submitted here one per
                // iteration so the budget gates above run between the
                // members of a batch exactly as they do between single
                // pulls.
                if self.resolve_selection(sel) {
                    dispatched += 1;
                }
                continue;
            }
            if !self.pull_selections() {
                return dispatched;
            }
        }
    }

    /// The [`super::CrawlConfig::robots_agent`] handshake (PR 6), run once
    /// before the root fetch: GET `/robots.txt` through the transport (a
    /// real, budget-charged request), parse a 200 answer, apply any
    /// declared `Crawl-delay` to the transport's politeness gate for the
    /// root host, and keep the rules for link admission. Any non-200
    /// answer means no robots.txt: everything stays admitted, nothing is
    /// slowed.
    fn fetch_robots(&mut self) {
        let Some(agent) = self.cfg.robots_agent.clone() else { return };
        let robots_url = format!("{}://{}/robots.txt", self.root.scheme, self.root.host);
        let f = self.transport.fetch_now(&robots_url);
        if f.status != 200 {
            return;
        }
        let robots = sb_httpsim::RobotsTxt::parse(&String::from_utf8_lossy(&f.body));
        self.transport.apply_crawl_delay(&robots, &agent, &self.root.host);
        self.robots = Some(robots);
    }

    /// One strategy pull: stop checks, then the strategy is asked once and
    /// whatever it hands back lands in [`CrawlSession::batch_buf`]; the
    /// refill loop submits from there one member per iteration, re-checking
    /// the budget gates between members. [`crate::Strategy::batch_selection`]
    /// only picks the trait method that supplies the selections: one
    /// [`crate::Strategy::select_batch`] ranking pass (PR 10) sized to the
    /// window's free slots — capped by the remaining request budget, so a
    /// batch never pulls selections a [`Budget::Requests`] crawl could not
    /// submit — or a single [`crate::Strategy::next`]. Never dispatches
    /// itself; `false` means refilling must stop (the session finished, or
    /// the frontier is dry while completions are still outstanding).
    fn pull_selections(&mut self) -> bool {
        if let Some(reason) = self.stop_check() {
            self.finish_with(reason);
            return false;
        }
        if self.strategy.batch_selection() {
            let free = self
                .transport
                .max_in_flight()
                .saturating_sub(self.transport.in_flight())
                .max(1);
            let k = match self.cfg.budget {
                Budget::Requests(b) => {
                    let headroom = b
                        .saturating_sub(self.transport.traffic().requests())
                        .saturating_sub(self.transport.in_flight() as u64);
                    // `budget_blocked()` was false, so headroom ≥ 1.
                    free.min(headroom.max(1).min(usize::MAX as u64) as usize)
                }
                _ => free,
            };
            let batch = self.strategy.select_batch(k, &mut self.rng);
            let snap = self.snapshot();
            self.hub
                .emit(&snap, &CrawlEvent::BatchSelected { requested: k, selected: batch.len() });
            self.batch_buf.extend(batch);
        } else {
            self.batch_buf.extend(self.strategy.next(&mut self.rng));
        }
        // `batch_buf` was empty: it holds exactly this pull's selections.
        #[cfg(debug_assertions)]
        for sel in &self.batch_buf {
            *self.unsettled.entry(sel.token).or_default() += 1;
        }
        if self.batch_buf.is_empty() {
            if self.transport.in_flight() == 0 {
                let snap = self.snapshot();
                self.hub.emit(&snap, &CrawlEvent::FrontierExhausted);
                self.finish_with(FinishReason::FrontierExhausted);
            }
            // Otherwise in-flight pages may still discover links: the
            // strategy is asked again after the next drain.
            return false;
        }
        true
    }

    /// Submits one already-pulled selection, delivering the error
    /// observation itself when the selection cannot be fetched. Returns
    /// whether a fetch was dispatched (into the window, or synchronously
    /// for an unparseable selection — either way budget was consumed); a
    /// degenerate strategy answer dispatches nothing.
    fn resolve_selection(&mut self, Selection { url, token }: Selection) -> bool {
        self.steps += 1;
        let id = match url {
            // Hot path: the id resolves without parsing or hashing.
            SelUrl::Id(id) if (id as usize) < self.depths.len() => id,
            SelUrl::Id(_) => {
                // An id the engine never handed out — a strategy bug.
                // Degrade like an error answer instead of panicking.
                debug_assert!(false, "strategy returned an unknown UrlId");
                self.settle(token);
                self.strategy.feedback_error(token);
                return false;
            }
            // Boundary path (oracle answer keys): parse + intern once.
            SelUrl::Text(s) => {
                let Ok(u) = Url::parse(&s) else {
                    // Seed parity: an unparseable selection still costs
                    // a (404-answered) fetch, so budgets advance and a
                    // re-offering strategy cannot spin the loop. Whatever
                    // the server answers, nothing classifiable can come
                    // back from a URL the engine cannot even parse — the
                    // selection is abandoned, and like every abandoned
                    // selection it delivers the error feedback (one
                    // observation per pull, no exceptions).
                    self.pages_crawled += 1;
                    let f = self.transport.fetch_now(&s);
                    let snap = self.snapshot();
                    self.hub.emit(
                        &snap,
                        &CrawlEvent::Fetched {
                            url: &s,
                            status: f.status,
                            mime: f.mime.as_deref(),
                            depth: 0,
                        },
                    );
                    self.abandon(
                        Some(token),
                        false,
                        &SelUrl::Text(s),
                        AbandonReason::UnparseableSelection,
                    );
                    // A synchronous charged fetch: counts as a dispatch for
                    // the refill limit even though no window slot is held.
                    return true;
                };
                self.intern_at_depth(&u, 0)
            }
        };
        let depth = self.depths[id as usize];
        self.submit(Job::fresh(id, depth, Some(token)));
        true
    }

    /// Hands one job to the transport and records it as in flight.
    pub(super) fn submit(&mut self, job: Job) {
        let rid = self.transport.submit(Request::get(self.visited.text(job.id)));
        let snap = self.snapshot();
        self.hub.emit(
            &snap,
            &CrawlEvent::Submitted {
                url: self.visited.text(job.id),
                in_flight: self.transport.in_flight(),
            },
        );
        self.inflight.push((rid, job));
    }

    /// The ordered stop checks of the outer loop. Order matters for replay
    /// fidelity: budget, OOM, then the early-stop observation
    /// (which mutates the detector and must not run when an earlier check
    /// already fired).
    fn stop_check(&mut self) -> Option<FinishReason> {
        if self.budget_exhausted() {
            let tr = self.transport.traffic();
            let snap = self.snapshot();
            self.hub.emit(
                &snap,
                &CrawlEvent::BudgetExhausted {
                    requests: tr.requests(),
                    total_bytes: tr.total_bytes(),
                },
            );
            return Some(FinishReason::BudgetExhausted);
        }
        if self.aborted_oom {
            return Some(FinishReason::ActionSpaceOverflow);
        }
        if let Some(es) = &mut self.early {
            if es.observe(self.pages_crawled, self.targets.len() as f64) {
                let snap = self.snapshot();
                self.hub.emit(&snap, &CrawlEvent::EarlyStopped { step: self.pages_crawled });
                return Some(FinishReason::EarlyStopped);
            }
        }
        None
    }

    fn budget_exhausted(&self) -> bool {
        let traffic = self.transport.traffic();
        match self.cfg.budget {
            Budget::Requests(b) => traffic.requests() >= b,
            Budget::VolumeBytes(b) => traffic.total_bytes() >= b,
            Budget::Unlimited => false,
        }
    }

    /// In-flight work already counts against the remaining allowance (it
    /// will be charged on delivery), so the window must not overfill past
    /// the budget: under a request budget each outstanding request covers
    /// one remaining slot, and under a volume budget the outstanding wire
    /// bytes ([`sb_httpsim::Transport::in_flight_bytes`]) cover the
    /// remaining volume — without the latter, a 16-wide window could
    /// overshoot [`Budget::VolumeBytes`] by fifteen whole transfers the
    /// sequential engine would never have started. Always false at
    /// `max_in_flight = 1`, where nothing is in flight when this runs (the
    /// frozen replay is untouched).
    fn budget_blocked(&self) -> bool {
        match self.cfg.budget {
            Budget::Requests(b) => {
                self.transport.traffic().requests() + self.transport.in_flight() as u64 >= b
            }
            Budget::VolumeBytes(b) => {
                self.transport.traffic().total_bytes() + self.transport.in_flight_bytes() >= b
            }
            Budget::Unlimited => false,
        }
    }
}
