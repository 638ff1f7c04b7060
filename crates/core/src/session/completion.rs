//! Delivered answers: Algorithm 4 per completion, link extraction, and the
//! one way a piece of work ends without a class observation.

use super::{CrawlSession, Job, Phase, RefreshedPage, RetrievedTarget};
use crate::events::{AbandonReason, CrawlEvent, FinishReason};
use crate::strategy::{LinkDecision, NewLink, SelUrl, Services};
use sb_httpsim::transport::RequestId;
use sb_httpsim::Fetched;
use sb_webgraph::fnv64;
use sb_webgraph::interner::UrlId;
use sb_webgraph::url::Url;

impl CrawlSession<'_> {
    /// Drains one transport poll batch and processes every delivered
    /// completion (redirect continuations re-submit, FetchNow children
    /// queue, feedback fires). Returns the number of completions
    /// processed — 0 when this session has nothing deliverable. Public as
    /// shared-pool plumbing: an external driver alternates
    /// [`CrawlSession::refill_one`] and this, in the pool's completion
    /// order ([`sb_httpsim::SharedTransportPool::next_completion_site`]).
    pub fn drain_completions(&mut self) -> usize {
        if self.is_finished() {
            return 0;
        }
        let mut batch = std::mem::take(&mut self.poll_buf);
        self.transport.poll_into(&mut batch);
        let delivered = batch.len();
        for (rid, f) in batch.drain(..) {
            let job = self.take_job(rid);
            self.process_completion(job, f);
        }
        self.poll_buf = batch;
        delivered
    }

    /// Removes the job matching a delivered request (submission order is
    /// preserved for the outstanding-feedback drain).
    fn take_job(&mut self, rid: RequestId) -> Job {
        let pos = self
            .inflight
            .iter()
            .position(|(id, _)| *id == rid)
            .expect("transport delivered an unknown request id");
        self.inflight.remove(pos).1
    }

    /// Ends the session for `reason`, settling everything it still owes.
    pub(super) fn finish_with(&mut self, reason: FinishReason) {
        // Work already dispatched is wire cost spent whether or not the
        // session reads the answers: drain the pool so the final traffic
        // (the paper's request/volume metrics) and clock stay honest. The
        // answers themselves are discarded — the jobs are abandoned below.
        // No-op when `max_in_flight == 1` (nothing in flight here).
        let mut buf = std::mem::take(&mut self.poll_buf);
        while self.transport.in_flight() > 0 {
            self.transport.poll_into(&mut buf);
            if buf.is_empty() {
                break;
            }
        }
        buf.clear();
        self.poll_buf = buf;
        // Work still in flight must not end silently: every outstanding
        // job gets a terminal `Abandoned` event (so observers can pair it
        // with its `Submitted`), and selections additionally deliver the
        // error observation — never a silent pull. Empty by construction
        // when `max_in_flight == 1`.
        for (_, job) in std::mem::take(&mut self.inflight) {
            let reason = AbandonReason::SessionClosed;
            self.abandon(job.token, job.refresh.is_some(), &SelUrl::Id(job.id), reason);
        }
        // Batch members pulled but never submitted (PR 10): same contract
        // as in-flight work — one error observation per pulled selection,
        // one terminal `Abandoned` each, never a silent pull.
        while let Some(sel) = self.batch_buf.pop_front() {
            self.abandon(Some(sel.token), false, &sel.url, AbandonReason::SessionClosed);
        }
        self.pending.clear();
        let snap = self.snapshot();
        self.hub.emit(&snap, &CrawlEvent::SessionFinished { reason });
        self.phase = Phase::Done(reason);
    }

    /// A fetch or selection ended without a class observation: the pull
    /// happened but nothing came back. The one place work is abandoned —
    /// the outer selection's `token` gets its error feedback (a selection
    /// must never be a silent pull), a `refresh` fetch is tallied as
    /// failed (it bought no freshness), and the abandonment is counted and
    /// announced together, so the tally moves only with an `Abandoned`.
    /// An id the session never issued has no URL to name: feedback only.
    pub(super) fn abandon(
        &mut self,
        token: Option<u64>,
        refresh: bool,
        url: &SelUrl,
        reason: AbandonReason,
    ) {
        if let Some(token) = token {
            self.settle(token);
            self.strategy.feedback_error(token);
        }
        if refresh {
            self.refresh_stats.failed += 1;
        }
        let url = match url {
            SelUrl::Id(id) if (*id as usize) < self.depths.len() => self.visited.text(*id),
            SelUrl::Id(_) => return,
            SelUrl::Text(s) => s,
        };
        self.abandoned.record(reason);
        let snap = self.snapshot();
        self.hub.emit(&snap, &CrawlEvent::Abandoned { url, reason });
    }

    /// The selection behind `token` gets its terminal feedback now. Debug
    /// builds check it was pulled and is settled exactly once; the caller
    /// delivers the feedback itself.
    pub(super) fn settle(&mut self, token: u64) {
        #[cfg(debug_assertions)]
        {
            let pending = self.unsettled.get_mut(&token);
            let pending =
                pending.unwrap_or_else(|| panic!("token {token} settled twice, or never issued"));
            *pending -= 1;
            if *pending == 0 {
                self.unsettled.remove(&token);
            }
        }
        let _ = token;
    }

    /// Algorithm 4 for one delivered answer: announce it, then act on it.
    fn process_completion(&mut self, job: Job, f: Fetched) {
        let id = job.id;
        let snap = self.snapshot();
        self.hub.emit(
            &snap,
            &CrawlEvent::Completed {
                url: self.visited.text(id),
                status: f.status,
                in_flight: self.transport.in_flight(),
            },
        );
        self.pages_crawled += 1;
        let snap = self.snapshot();
        self.hub.emit(
            &snap,
            &CrawlEvent::Fetched {
                url: self.visited.text(id),
                status: f.status,
                mime: f.mime.as_deref(),
                depth: job.depth,
            },
        );
        if let Err((id, reason)) = self.handle_answer(job, f) {
            self.abandon(job.token, job.refresh.is_some(), &SelUrl::Id(id), reason);
        }
    }

    /// What a delivered answer leads to, or the URL and reason its job is
    /// abandoned for. Redirect chains continue by re-submitting
    /// immediately (the delivered request just freed a window slot, and
    /// the sequential chain loop ran without budget checks between hops);
    /// FetchNow children queue on `pending`.
    fn handle_answer(&mut self, job: Job, f: Fetched) -> Result<(), (UrlId, AbandonReason)> {
        let id = job.id;
        if (300..400).contains(&f.status) {
            // 3xx: follow the Location if it is new, on-site and admitted.
            let Some(loc) = &f.location else {
                return Err((id, AbandonReason::RedirectMissingLocation));
            };
            let Ok(next) = self.visited.base(id).join(loc) else {
                return Err((id, AbandonReason::RedirectUnparseable));
            };
            if !next.same_site_as(&self.root) {
                return Err((id, AbandonReason::RedirectOffSite));
            }
            if !self.admits(&next) {
                return Err((id, AbandonReason::RedirectFiltered));
            }
            let next_id = match self.visited.get(&next) {
                // Already known elsewhere; don't crawl twice.
                Some(known) if known != id => {
                    return Err((id, AbandonReason::RedirectAlreadyKnown));
                }
                // Self-redirect: keep following until the chain bound.
                Some(known) => known,
                None => self.intern_at_depth(&next, job.depth),
            };
            let snap = self.snapshot();
            self.hub.emit(
                &snap,
                &CrawlEvent::Redirected {
                    from: self.visited.text(id),
                    to: self.visited.text(next_id),
                },
            );
            if job.hops_left == 0 {
                return Err((next_id, AbandonReason::RedirectChainExhausted));
            }
            self.submit(Job { id: next_id, hops_left: job.hops_left - 1, ..job });
            return Ok(());
        }

        // Errors (4xx/5xx) yield nothing; the selection still consumed a
        // pull. Hazard-layer answers (synthetic timeout/quarantine
        // statuses, retried-then-failed 5xx) get their own reasons.
        if f.status >= 400 {
            if job.refresh.is_some() {
                // The serving layer needs the death certificate (404/410
                // feed the recrawl policies' `died` observations); the
                // `failed` tally is charged by `abandon`.
                self.refreshed.push(RefreshedPage {
                    url: self.visited.text(id).to_owned(),
                    status: f.status,
                    mime: f.mime.clone(),
                    body: f.body.clone(),
                    body_hash: fnv64(&f.body),
                    refresh: true,
                    changed: false,
                });
            }
            return Err((id, AbandonReason::for_http_failure(f.status, f.attempts)));
        }
        if f.interrupted {
            // Banned MIME type: transfer aborted (Algorithm 3).
            return Err((id, AbandonReason::Interrupted));
        }
        let Some(mime) = f.mime else {
            return Err((id, AbandonReason::MissingMime));
        };

        if self.cfg.policy.is_html_mime(&mime) {
            if let Some(prior) = job.refresh {
                // A refreshed page still harvests links — an evolved
                // origin's new URLs enter the frontier here, which is how
                // refresh and discovery interleave — but the strategy gets
                // no second class observation for an already-counted page.
                self.feed(id, f.status, &mime, f.body.clone(), Some(prior));
                self.process_html(id, job.depth, &f.body);
                return Ok(());
            }
            self.strategy.on_fetched(id, self.visited.text(id), sb_webgraph::UrlClass::Html);
            let reward = self.process_html(id, job.depth, &f.body);
            if let Some(token) = job.token {
                self.settle(token);
                self.strategy.feedback(token, reward);
            }
            if self.cfg.serve_feed {
                self.feed(id, f.status, &mime, f.body, None);
            }
        } else if self.cfg.policy.is_target_mime(&mime) {
            // A target: tag its volume and keep it.
            self.transport.tag_target(f.wire_bytes);
            if let Some(prior) = job.refresh {
                // Refreshed target: tagged wire volume (it is target
                // payload), but not re-counted in `targets`.
                self.feed(id, f.status, &mime, f.body, Some(prior));
                return Ok(());
            }
            self.strategy.on_fetched(id, self.visited.text(id), sb_webgraph::UrlClass::Target);
            if self.cfg.serve_feed {
                // Cheap: `Body` is an `Arc<[u8]>` pointer clone.
                self.feed(id, f.status, &mime, f.body.clone(), None);
            }
            self.targets.push(RetrievedTarget {
                url: self.visited.text(id).to_owned(),
                mime: mime.clone(),
                body: self.cfg.keep_target_bodies.then_some(f.body),
            });
            let snap = self.snapshot();
            self.hub.emit(
                &snap,
                &CrawlEvent::TargetRetrieved {
                    url: self.visited.text(id),
                    mime: &mime,
                    ordinal: self.targets.len() as u64,
                },
            );
            if let Some(token) = job.token {
                // Algorithm 4 returns before the R_mean update for targets:
                // the pull happened but no reward observation follows.
                self.settle(token);
                self.strategy.feedback_target(token);
            }
        } else {
            // Any other MIME type: "Neither". The pull yielded no
            // observation and no value, so it settles as an error (SB's
            // Algorithm 4 returns early for non-HTML); a refresh bought
            // nothing the serving layer can use, so it counts as failed.
            if let Some(token) = job.token {
                self.settle(token);
                self.strategy.feedback_error(token);
            }
            if job.refresh.is_some() {
                self.refresh_stats.failed += 1;
            }
        }
        Ok(())
    }

    /// Link/redirect admission beyond the structural checks: the session's
    /// robots rules, when [`super::CrawlConfig::robots_agent`] fetched any.
    fn admits(&self, url: &Url) -> bool {
        match (&self.robots, &self.cfg.robots_agent) {
            // Rules match the path *and* query (`Disallow: /*?month=`).
            (Some(robots), Some(agent)) if url.query.is_empty() => robots.allows(agent, &url.path),
            (Some(robots), Some(agent)) => {
                robots.allows(agent, &format!("{}?{}", url.path, url.query))
            }
            _ => true,
        }
    }

    /// Link extraction + per-link decisions; returns the page's reward
    /// (the number of new links to predicted targets, queued for fetch).
    fn process_html(&mut self, page_id: UrlId, page_depth: u32, body: &[u8]) -> f64 {
        // Zero-copy parse path (PR 3): the body is borrowed when it is
        // valid UTF-8 (the render cache guarantees it), and every extracted
        // link borrows `html` in turn — owned conversion happens only below,
        // at the interner boundary, for URLs that outlive the page.
        let html = sb_html::body_str(body);
        let doc = sb_html::parse(&html);
        // A link is filtered on its href alone; its features (tag path,
        // text windows) are computed once it is about to reach `decide`, so
        // a link the visited set rejects never pays for them.
        let needs = self.strategy.link_needs();
        let mut text_scratch = String::new();
        // One clone of the parsed base per page (instead of a re-parse);
        // per link, the href resolves into the session's scratch `Url` and
        // membership is checked on it, so known links cost one fingerprint
        // and zero allocations.
        let base = self.visited.base(page_id);
        let mut resolved = self.link_scratch.take().unwrap_or_else(|| base.clone());
        let mut reward = 0.0;
        let mut new_links = 0u32;
        for site in sb_html::link_sites(&doc) {
            if base.join_into(&site.href, &mut resolved).is_err() {
                continue;
            }
            // Only in-website links enter the graph (Sec 2.2).
            if !resolved.same_site_as(&self.root) {
                continue;
            }
            // u_new ∉ T ∪ F
            if self.visited.get(&resolved).is_some() {
                continue;
            }
            // Extension blocklist: skipped without any bookkeeping.
            if self.cfg.policy.has_blocked_extension(&resolved) {
                continue;
            }
            // robots.txt admission: dropped unrequested.
            if !self.admits(&resolved) {
                continue;
            }
            let id = self.intern_at_depth(&resolved, page_depth + 1);
            new_links += 1;
            let link = site.into_link(&doc, needs, &mut text_scratch);
            let new_link = NewLink {
                id,
                url: &resolved,
                url_str: self.visited.text(id),
                html: &link,
                source_depth: page_depth,
            };
            let mut services = Services {
                transport: &mut *self.transport,
                oracle: self.oracle,
                policy: &self.cfg.policy,
            };
            let decision = self.strategy.decide(&new_link, &mut services);
            let snap = self.snapshot();
            self.hub.emit(
                &snap,
                &CrawlEvent::LinkDiscovered {
                    url: self.visited.text(id),
                    depth: page_depth + 1,
                    decision,
                },
            );
            match decision {
                // Enqueue/Skip need no bookkeeping: interning above already
                // recorded membership and depth.
                LinkDecision::Enqueue | LinkDecision::Skip => {}
                LinkDecision::FetchNow => {
                    reward += 1.0;
                    self.pending.push_back(Job::fresh(id, page_depth + 1, None));
                }
                LinkDecision::ActionSpaceFull => {
                    self.aborted_oom = true;
                    self.link_scratch = Some(resolved);
                    return reward;
                }
            }
        }
        self.link_scratch = Some(resolved);
        let snap = self.snapshot();
        self.hub.emit(
            &snap,
            &CrawlEvent::PageProcessed { url: self.visited.text(page_id), new_links, reward },
        );
        reward
    }
}
