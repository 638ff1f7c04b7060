#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, the named guards,
# an xp-driven smoke run of the experiment harness and the benchmark/ smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
# Examples and test binaries must stay compilable too.
cargo build --offline --workspace --all-targets
cargo test -q --offline --workspace
# The zero-copy HTML pipeline must stay allocation-bounded (PR 3): the
# counting-allocator guard pins tokenize+parse+extract of an entity-free
# page to a handful of arena allocations. The workspace run above already
# executes it; this names the guard so a regression fails loudly on its
# own line (and keeps failing even if the test is ever filtered there).
# It also bounds `parse` in bytes: the arenas, reserved once from the
# page's count of `<` and `=`, cost 100 kB of prose in one `<p>` under
# 4 KB, and that page and a 3 000-item link list no more than the doubling
# arenas did.
cargo test -q --offline -p sb-html --test alloc_guard
# The sparse sketch kernel (PR 14) is only allowed to be the dense pipeline
# minus its exact-zero terms: the differential proptests compare cosine,
# projection and centroid move against the dense reference bit for bit, the
# ActionSpace-level one is the brute-force-parity net (ids, member counts and
# `match_only` against an independent dense model with an exhaustive nearest
# centroid, among dozens of near-equidistant moving centroids too), and the
# counting-allocator guard keeps any D-sized temporary out of `assign`.
# Named like the html guard above, for the same reason.
cargo test -q --offline -p sb-ann --test proptest_sparse
cargo test -q --offline -p sb-crawler --test proptest_action
# `ActionSpace` pays for each tag path once: its memo keeps every distinct
# path's sketch and one cosine per action, stamped with the centroid's
# member count, and centroids move into a reused scratch vector. The memo
# differentials replay small pools of repeating paths (both families, every
# θ, a `max_actions` cap tripping partway) and a unique-id stream long
# enough to empty the memo against the dense model; the allocation guard
# holds a repeat path's joining `assign` to 0 bytes and a first sighting's
# to the 1 744 B it had before the memo.
cargo test -q --offline -p sb-crawler --test proptest_action memoised_assign_replays_the_dense_transcription_over_repeating_paths
cargo test -q --offline -p sb-crawler --test proptest_action the_memo_empties_mid_sequence_without_changing_an_answer
cargo test -q --offline -p sb-crawler --test alloc_guard_action
# The value frontier is one fixed weighted sum (depth, classifier,
# near-dup, bandit, folded in that order); its three learning terms score
# once per candidate and re-score what changed, and the near-dup term
# (0 or −1) runs only where it can change the top-k: an old candidate is
# ranked on its ceiling folded in place of the answer, and scored exactly
# only if that bound still reaches the k-th best exact total. What
# licenses the per-candidate memos and the deferral is the frozen
# re-score-everything strategy under crates/core/tests/oracle/: the proptest
# replays arbitrary decide/select/fetch/feedback interleavings of the
# default mix against it (every selection and token equal, through two laps
# of the near-dup ring and three classifier trainings), and the
# counting-allocator guard pins a steady-state pass to a constant number of
# allocations whatever the frontier's size; debug builds of every pass
# assert each memo column holds one memo per frontier candidate. The unit
# tests pin the certification on synthetic bounds — a bound far above the
# rest is scored alone, and a bound equal to the k-th total is scored, so
# ties still break on UrlId — and a steady-state pass of the strategy
# scores the near-dup term for its top-1 alone; the ring-slot test pins
# that an overwritten slot's bit is recomputed.
# Underneath, `sb_ml::featurize` counts bigrams by sort and run length; its
# proptest holds every item's bits to the map-counting kernel it replaced.
cargo test -q --offline -p sb-crawler --test proptest_value
cargo test -q --offline -p sb-crawler --lib strategies::value::tests::certification_scores_only_bounds_that_reach_the_kth_total
cargo test -q --offline -p sb-crawler --lib strategies::value::tests::equal_bounds_and_totals_still_rank_by_url_id
cargo test -q --offline -p sb-crawler --lib strategies::value::tests::a_bound_equal_to_the_kth_total_is_scored_and_wins_its_tie
cargo test -q --offline -p sb-crawler --lib strategies::value::tests::a_steady_pass_runs_the_near_dup_term_only_where_its_bound_reaches_the_top_k
cargo test -q --offline -p sb-crawler --lib strategies::value::tests::overwriting_a_ring_slot_forgets_its_old_sketch
cargo test -q --offline -p sb-crawler --test alloc_guard_value
cargo test -q --offline -p sb-ml --test proptest_ml featurize_matches_the_map_counting_reference
# The online classifiers are one learner: `sb_ml::Model` picks its update
# rule by `ModelKind` and owns the batch buffer and the one trainings
# counter that the URL classifier's initial phase and observation count
# derive from; FOCUSED holds one too. What licenses it is the frozen
# `OnlineBinaryModel` trait, its four model structs and the classifier that
# drove them under crates/ml/tests/oracle/: the differential holds every
# score bit for bit, and trainings, initial phase and observation count,
# after every label of arbitrary labelled sequences (every kind, both
# feature sets, b = 1–40).
cargo test -q --offline -p sb-ml --test proptest_ml classifier_replays_the_frozen_model_structs
# The near-dup check is a gather: the ring of fetched sketches is stored
# bucket-major (`sb_ann::SketchRing`) and each candidate keeps its
# projection. A write clears only the rows its slot's old vector held. The
# kernel's reads equal the merge-join `cosine_sparse` bit for bit after any
# sequence of slot overwrites (extra `v × 0.0` terms add ±0.0 to an
# accumulator that is never −0.0), and the value frontier reads
# the ring only through the kernel; the oracle under
# crates/core/tests/oracle/ keeps its own `cosine_sparse` scan.
cargo test -q --offline -p sb-ann --test proptest_sparse sketch_ring_reads_equal_the_merge_join
if grep -n "cosine_sparse" crates/core/src/strategies/value.rs; then
    echo "verify: the value frontier reads the near-dup ring outside SketchRing" >&2; exit 1
fi
# The bandit policy is one enum over the caller's arms. What licenses it is
# the frozen `Policy` trait, its four policy structs and the per-pick
# `ArmView` copy under crates/bandit/tests/oracle/: the differential holds
# every variant to them over arbitrary arm statistics (exact ties, silent
# pulls, every parameter edge), availability, `t` and seed — the same arm,
# and the same next `u64` from the RNG. The settle proptest holds a mean
# over arbitrary select/settle/reward interleavings of one arm to
# Algorithm 4 replayed over its settled pulls in settle order.
cargo test -q --offline -p sb-bandit --test proptest_bandit select_replays_the_frozen_policy_structs
cargo test -q --offline -p sb-bandit --test proptest_bandit settled_mean_replays_algorithm_4_in_settle_order
if grep -rn -e "trait Policy" -e "struct ArmView" -e "BanditChoice" -e "AnyPolicy" \
        -e "struct Auer" -e "struct Ucb1" -e "struct EpsilonGreedy" -e "struct ThompsonSampling" \
        crates/*/src; then
    echo "verify: a second way to pick an arm reappeared" >&2; exit 1
fi
if grep -rn -e "trait OnlineBinaryModel" -e "dyn OnlineBinaryModel" -e "struct LogReg" crates/*/src \
    | grep -v "^crates/bench/"; then
    echo "verify: a second online learner reappeared" >&2; exit 1
fi
# Link admission resolves once and hashes once (PR 19). The webgraph
# proptest licenses the session's scratch `Url`: `join_into`/`parse_into`
# on one dirty destination equal a fresh `join`/`parse` on every step. The
# counting-allocator guard licenses the fingerprint key: rejecting a known
# link allocates nothing in either tier of the visited set, and admitting
# one costs at most six allocations.
cargo test -q --offline -p sb-webgraph --test proptest_webgraph
cargo test -q --offline -p sb-scale --test alloc_guard_visited
# The origin writes bytes, not trees (PR 23). What licenses the streaming
# emitter is the frozen tree renderer and target generator under
# crates/webgraph/tests/oracle/: the differential proptests hold
# `render_page_into` to it on every HTML page of arbitrary sites (every
# slot and section style, hazard-laced, mutated by an epoch), `HtmlWriter`
# on arbitrary trees, and `content::target_body` on every format and size —
# one RNG draw out of place fails them. The counting-allocator guards pin
# what a render costs: at most two allocations under 512 B per page on a
# warmed thread, and a streaming cache miss that requests under twice its
# body; a single `to_owned()` per href fails both.
cargo test -q --offline -p sb-webgraph --test proptest_render
cargo test -q --offline -p sb-webgraph --test alloc_guard_render
cargo test -q --offline -p sb-scale --test alloc_guard_stream
# One body cache for both site stores (PR 28): `Website` and
# `StreamingSite` serve through `sb_webgraph::gen::BodyCache`, so one
# behaviour suite runs over both. A cold HEAD renders a page once and
# nothing after it does; every page of a 300-page site serves
# `render_page`/`target_body` bytes and sizes within the budgets; an
# evicted streaming page answers HEAD without rendering; a `Website`
# mutated after serving serves fresh bytes for the page and its linkers.
cargo test -q --offline -p sb-scale --test body_cache
# One read API for both stores: `SiteSource` is the only way anything reads
# a site, and the experiment harness reads its read-only sites off the
# packed store. What licenses that is store identity: the proptest holds
# the packed store to the eager one on arbitrary `SiteSpec::demo` knobs,
# and the profile test does so on every Table 1 profile — every accessor,
# body, size and payload, the URL index, `target_urls`, `source_depths`
# and `census`.
cargo test -q --offline -p sb-scale --test proptest_scale streaming_site_is_byte_identical
cargo test -q --offline -p sb-scale --test profile_identity
# Target payloads are generated when read, not when served: a target GET
# answers with a deferred body. The allocation guard holds a GET of a
# 30 kB+ target plus `declared_len`, `wire_size` and `settle_get` to under
# 1 kB on both stores, its first read to one generation and later reads to
# none, and a BFS crawl that keeps no bodies to an empty target cache. The
# proptest holds every served target body of arbitrary sites (both stores,
# every data-palette format plus doc, every cache budget) to
# `target_payload` and the frozen generator, across racing readers.
cargo test -q --offline -p sb-crawler --test alloc_guard_deferred
cargo test -q --offline -p sb-crawler --test proptest_deferred_body
# A declared Content-Length must not read the body: `unwrap_or` evaluates
# its argument, which would generate every deferred target on the wire path.
if grep -n "unwrap_or(self.body.len()" crates/httpsim/src/response.rs; then
    echo "verify: declared_len reads the body eagerly" >&2; exit 1
fi
# A tag path is one string, built only for the links that survive (PR 24).
# The html guard named at the top now also pins `TagPath::of` to two
# allocations whatever the path's depth (a `to_owned()` per class fails it)
# and a walk over a page's link sites to none; borrowed tokens and one gram
# buffer are what keep a first-sighting `assign` within the action guard's
# byte budget (a repeat path is not tokenised at all). The n-gram
# differential holds that buffer to the pad-and-`join` model it replaced
# (n = 1..3, empty lists, repeated grams,
# tokens with spaces, `&[String]` and `&[&str]`, same vocabulary order); the
# session test holds every link `decide` is handed over clean and
# hazard-laced crawls to what eager extraction computes at its position of
# its page. The deep-nesting regression extracts a 200 000-deep anchor with
# every feature on a 2 MiB stack: the subtree walks are loops over
# `Document::descendants`, where one recursive call per level aborted.
cargo test -q --offline -p sb-ann --test proptest_ann buffer_grams_match_the_join_they_replace
cargo test -q --offline -p sb-crawler --test session_api deferred_link_features_equal_eager_extraction
cargo test -q --offline -p sb-html --test deep_nesting
# One way to configure a crawl (PR 25): a struct-literal config with any
# value the deleted builder rejected fails `CrawlSession::new`,
# `with_transport` and a fleet job alike, before any request is made.
cargo test -q --offline -p sb-crawler --test session_api every_way_of_building_a_session_rejects_an_invalid_config
# One abandonment path (PR 26): dead redirects, HTTP errors, an unparseable
# selection, in-flight work and buffered batch members at `finish()` are
# each counted in their `AbandonCounts` bucket exactly as often as an
# `Abandoned` event names them, and every token gets one terminal feedback.
cargo test -q --offline -p sb-crawler --test session_api every_abandonment_source_is_counted_once_beside_its_event
# One home per crawl statistic: the identities the deleted copies
# stood for — an early stop is its finish reason, fired once at the step
# that counts the `Fetched` events before it; per-step fetches sum to the
# GET count; `pages_crawled` counts `Fetched` events; `SessionStarted`
# names the first URL submitted; a fleet's sums are its sites' sums.
cargo test -q --offline -p sb-crawler --test session_api each_crawl_statistic_agrees_with_the_event_stream
# A 429 storm trips the circuit breaker and the session is closed with a
# batch half-submitted: one terminal feedback per token, each abandonment
# bucket equal to its events, GETs within budget + window·(1 + retries).
cargo test -q --offline -p sb-crawler --test session_api a_429_storm_closed_mid_batch_settles_every_selection_once
# A fetch whose MIME type is neither HTML nor a target settles too: its
# selection gets `feedback_error` at windows 1, 4 and 16, and a refresh of
# one counts as failed, so `attempted()` reaches `scheduled`.
cargo test -q --offline -p sb-crawler --test session_api a_fetch_that_is_neither_html_nor_a_target_settles_once
# Byte-hostile HTML against the frozen seed parser: raw-text elements left
# open at EOF, megabyte attribute values, 10 000 nested elements and
# invalid UTF-8 (the html alloc guard above bounds the same inputs).
cargo test -q --offline -p sb-bench --test html_equivalence
# Anchor text is the capped text walk with no cap: padded, multi-node,
# empty and non-ASCII-whitespace anchors normalise as the seed's
# concatenate-then-normalise did, and so do the blocks they are cut from.
cargo test -q --offline -p sb-bench --test html_equivalence whitespace_and_multinode_anchors
# A fetched page is scanned once: each tokenizer scan walks its run through
# one byte-class table and notes whether it passed a `&` or an uppercase
# byte, so `unescape` and the lowercase fold run only on runs that hold
# one, and the raw-text search jumps from `<` to `<`; `body_str` validates
# with `str::from_utf8` before it falls back to the lossy decoder. What
# licenses the scans is the frozen seed parser: the scan-exit proptest
# builds pages whose text runs, quoted and unquoted values, tag and
# attribute names and `script`/`style` bodies start or end on an entity, a
# bare `&`, an uppercase or a multi-byte character, or stop at EOF, and
# holds tokens, DOMs and links equal to the seed's; its byte twin holds
# `body_str` to `String::from_utf8_lossy` in value and borrowed-ness, with
# and without a stray invalid byte. Clippy keeps sb-html warning-free
# (`--no-deps` leaves out the vendored crates' own warnings).
cargo test -q --offline -p sb-bench --test html_equivalence scan_exits_match_the_seed
cargo test -q --offline -p sb-bench --test html_equivalence body_str_matches_lossy_decoding_on_scan_edge_pages
cargo clippy --offline -p sb-html --all-targets --no-deps -- -D warnings
# End-to-end harness smoke: one tiny experiment through site generation,
# crawling, metrics and report rendering.
cargo run --release --offline -p sb-eval --bin xp -- \
    table1 --scale 0.003 --seeds 1 --sites cl,nc --jobs 2 --out target/verify-smoke
# Fleet smoke: multi-site concurrent sessions through the fleet scheduler,
# plus the shared transport pool arm (PR 5) — the experiment asserts the
# window-1 pool replays the per-site-transport fleet byte-identically and
# reports the 1/4/16 global-window makespan ladder — plus the sharded
# parallel driver ladder (PR 8) — per-site results asserted byte-identical
# across 1/2/4 shard threads with work stealing live.
cargo run --release --offline -p sb-eval --bin xp -- \
    fleet --scale 0.003 --sites cl,nc,ab,ce --jobs 2 --shared-pool --shards 1,2,4 \
    --out target/verify-smoke
test -s target/verify-smoke/fleet_pool.csv
test -s target/verify-smoke/fleet_shards.csv
# The fleet example drives every FleetMode through the public API from
# outside the crate and asserts cross-mode coverage parity (per-site vs
# pool 1/16, shards 1/2/4, pinned-assignment stealing), so it is run
# (~1 s), not just compiled.
cargo run --release --offline --example fleet_crawl > /dev/null
# Pipeline smoke: the nonblocking transport at in-flight 1/4/16 — coverage
# must be window-invariant and the makespan ladder monotone (PR 4).
cargo run --release --offline -p sb-eval --bin xp -- \
    pipeline --scale 0.003 --jobs 2 --out target/verify-smoke
# Hostile smoke: the hazard-laced site through retry/backoff transports at
# windows 1/4/16, plus the circuit-breaker blackout drill (PR 6).
cargo run --release --offline -p sb-eval --bin xp -- \
    hostile --scale 0.003 --jobs 2 --out target/verify-smoke
# Scale smoke (PR 7): the 10k rung of the memory-bounded ladder —
# streaming site, spill-backed frontier, fingerprint visited set. The
# experiment itself asserts bounded in-memory gauges (spill observed,
# frontier cap respected) and byte-identical coverage vs the unbounded
# engine; `--scale 0.003` keeps it to the 10k rung. Its CSV records only
# what the crawl determines, so a `--jobs 1` rerun writes the same bytes.
cargo run --release --offline -p sb-eval --bin xp -- \
    scale --scale 0.003 --jobs 2 --out target/verify-smoke
test -s target/verify-smoke/scale.csv
cargo run --release --offline -p sb-eval --bin xp -- \
    scale --scale 0.003 --jobs 1 --out target/verify-smoke-jobs1
cmp target/verify-smoke/scale.csv target/verify-smoke-jobs1/scale.csv
# Serve smoke (PR 9): continuous crawl-and-serve — the experiment asserts
# the zero-reader window-1 refresh schedule is byte-reproducible and the
# freshness SLA (median age-at-read ≤ 2 epochs) holds on every rung of
# the 0/2/4-reader pressure ladder.
# The snapshot store synchronises with plain locks (PR 18). What licenses
# the lock is the suite that held the lock-free cell to account: readers
# under a write storm see only untorn, per-URL monotone versions. (The
# `alloc_guard_replay` line that stood here pinned `ReplayStore::get_shared`,
# which `sb_serve` never called: no serve-path coverage went with it, PR 21.)
cargo test -q --offline -p sb-serve --test snapshot_consistency
# The serve loop hashes no corpus. The truth oracle compares a stored body
# with the live one byte for byte (`serves_live`: equal, one byte off, a
# length off, an error status, empty bodies, and a proptest holding it to
# the `fnv64` compare it replaced), and the store's index is FxHash-keyed
# (10 000 near-identical URLs each resolve to their own slot through
# `slot`, `read` and `peek`).
cargo test -q --offline -p sb-serve --lib runtime::tests
cargo test -q --offline -p sb-serve --lib store::tests::ten_thousand_urls_each_resolve_to_their_own_slot
if grep -nw "HashMap" crates/serve/src/store.rs; then
    echo "verify: the snapshot store's index is back on std's SipHash map" >&2; exit 1
fi
if grep -n "fnv64(" crates/serve/src/runtime.rs; then
    echo "verify: the serve loop hashes bodies again" >&2; exit 1
fi
cargo run --release --offline -p sb-eval --bin xp -- \
    serve --scale 0.003 --jobs 2 --out target/verify-smoke
test -s target/verify-smoke/serve.csv
# Quality smoke (PR 10): the value-driven batch frontier ladder — the
# experiment itself asserts every VALUE rung (batch 1/4/16 = in-flight
# window) buys strictly more targets per GET than BFS under the shallow
# request budget.
cargo run --release --offline -p sb-eval --bin xp -- \
    quality --scale 0.003 --jobs 2 --out target/verify-smoke
test -s target/verify-smoke/quality.csv
# Revisit smoke: the four revisit policies through the second
# `CrawlSession::queue_refresh` caller (`experiments::revisit::recrawl` — one
# session per policy, BFS acquisition at epoch 0, one refresh per pick); the
# experiment itself asserts both tag-path group learners reach at least
# uniform cycling's new-target recall on every site. Also exercises
# `Website` mutation, which empties the site's body cache. ~1 s.
cargo run --release --offline -p sb-eval --bin xp -- \
    revisit --scale 0.003 --seeds 1 --jobs 2 --out target/verify-smoke
test -s target/verify-smoke/revisit.csv
# One crawl loop, one way to fetch (PR 16). Structural guards, each failing
# on its own line (`if`, because `set -e` ignores a `!`-negated pipeline):
# link extraction (eager `extract_links*` or the lazy `link_sites`) is called
# by the parser crate, the site generator, the session and the frozen
# reference only; the blocking `Client` lives in `sb_bench` (PR 26) and is
# constructed there only — by the frozen reference engine and its own
# tests; the transport's window-1 pins against it are integration tests.
if grep -rn -e "extract_links" -e "link_sites" crates/*/src \
    | grep -v -e "^crates/html/" -e "^crates/webgraph/src/gen/" \
              -e "^crates/core/src/session/" -e "^crates/bench/"; then
    echo "verify: links extracted outside CrawlSession" >&2; exit 1
fi
if grep -rn "Client::new" crates/*/src | grep -v -e "^crates/bench/src/"; then
    echo "verify: library code fetches through the blocking Client" >&2; exit 1
fi
# Nearest centroid is an exact scan and the visited set is the one URL
# table (PR 20); the origin is the replay database and robots.txt is fetched
# and enforced by the session's `robots_agent` handshake alone (PR 21);
# markup is emitted by `HtmlWriter` alone, the tree builder being a test
# oracle (PR 23); a tag path is its rendered text, not a segment vector, and
# n-grams come out of one buffer, not a `Vec<String>` (PR 24); a crawl is
# configured by one struct literal its session validates, with no builder,
# seed list, URL filter or step cap beside it, and retries are set by one
# `RetryPolicy` setter (PR 25); the session abandons work and feeds the
# serving layer through one function each, and the wrappers and toggles
# nothing called are gone (PR 26): no deleted duplicate comes back.
# Every crawl statistic has one home: no second root string, no abandonment
# getter beside `CrawlOutcome::abandoned`, no finish reason copied onto
# `StepReport`, no summing of memory gauges. One body cache serves both
# site stores (PR 28): no render-slot table, build-time sizing pass,
# reverse-link index or fill-once target budget beside it. `benchmark/` is
# the one place that times the crawl (PR 29): no benchmark shim, fleet
# throughput getter or peak-RSS reader beside it.
# A centroid moves through one kernel, `moved_toward_into`: no allocating
# `moved_toward` beside it. A site is read through `SiteSource` alone: no
# forwarding impl for `Arc` beside it (callers deref).
if grep -rn -e "Hnsw" -e "UrlInterner" -e "ReplayStore" -e "ArchiveWriter" \
        -e "fetch_sitemap_urls" -e "robots_filter" -e "RobotsTxt::fetch" \
        -e "HtmlBuilder" -e "fn grams(" -e "pub segments" \
        -e "CrawlConfigBuilder" -e "UrlFilter" -e "seed_urls" -e "MaxSteps" \
        -e "fn with_retries" -e "StatusExt" -e "fn note_served" -e "fn note_refreshed" \
        -e "fn text_arc" -e "SB_SCALE_XL" -e "extract_links_from(" \
        -e "root_text" -e "fn abandoned(&self)" -e "pub finished: Option<FinishReason>" \
        -e "fn merge(&mut self, other: &MemGauges)" \
        -e "RenderSlot" -e "in_links_extra" -e "fn try_charge" -e "fn finish_build" \
        -e "target_cache_remaining" -e "criterion" -e "fn requests_per_sec" -e "VmHWM" \
        -e "fn moved_toward(" -e "SiteSource for Arc<" \
        crates/*/src Cargo.toml crates/*/Cargo.toml; then
    echo "verify: a deleted duplicate reappeared" >&2; exit 1
fi
# The site is the oracle: oracle strategies read the served `SiteSource`,
# with no one-impl trait or fleet-job handle beside it; anchor text has no
# uncapped walk beside the capped one; early stopping's ε and γ are the
# paper's constants, not fields. Each check fails on its own line.
if grep -rn "pub trait Oracle" crates/*/src; then
    echo "verify: the Oracle trait reappeared" >&2; exit 1
fi
if grep -rn "SharedOracle" crates/*/src examples/; then
    echo "verify: a fleet oracle handle reappeared" >&2; exit 1
fi
if grep -rn "fn element_text(" crates/*/src; then
    echo "verify: a second anchor-text walk reappeared" >&2; exit 1
fi
if grep -n "pub epsilon:" crates/core/src/early_stop.rs; then
    echo "verify: early stopping's epsilon is a field again" >&2; exit 1
fi
if grep -n "pub gamma:" crates/core/src/early_stop.rs; then
    echo "verify: early stopping's gamma is a field again" >&2; exit 1
fi
# Library crates hold only what a crawl runs: the dense projection and
# cosine the sparse kernels are pinned against live in `sb_bench::dense`,
# tag paths are built by hand from rendered tokens (`TagPath::from_tokens`),
# the batching adapter lives under `crates/core/tests/batched/`, and the
# value frontier's mix is code — not a parsed `rating_methods` string, not a
# plug-in `Scorer` host with a bounds protocol and a `new(mix)` constructor.
if grep -rn "Reference only" crates/*/src | grep -v "^crates/bench/"; then
    echo "verify: a reference implementation is back in a library crate" >&2; exit 1
fi
if grep -rn -e "struct PathSegment" -e "struct Batched" -e "struct ValueSpec" -e "pub fn project(" \
        -e "trait Scorer" -e "dyn Scorer" -e "fn bounds(" -e "ValueStrategy::new(" \
        crates/*/src examples/ | grep -v "^crates/bench/"; then
    echo "verify: a test adapter, reference kernel or scorer host is back in a library crate" >&2; exit 1
fi
# `ReadReport::wall_secs` in sb_serve stays (`serve_refresh` reads its qps).
if grep -rn "wall_secs" crates/core/src crates/eval/src; then
    echo "verify: a crawl timer reappeared outside benchmark/" >&2; exit 1
fi
# The benchmark (benchmark/, BENCHMARK.json) is its own [workspace], so the
# workspace build and test lines above never compile it: a PR that narrows a
# public API it uses would break it unnoticed. Build it, run its tests, and
# smoke one workload end to end — the last stdout line is the JSON result
# and must report a correct crawl. cargo and run.sh both honour
# CARGO_TARGET_DIR and both default to benchmark/target.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
# run.sh builds without --locked, so a dependency-edge change in a crate the
# benchmark builds would rewrite benchmark/Cargo.lock: fail here instead.
git diff --exit-code -- benchmark/
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# The paired runner (scripts/pair.sh) builds and runs whole revisions, too
# slow for this script: check that it parses and prints its usage.
bash -n scripts/pair.sh
scripts/pair.sh --help > /dev/null
benchmark/run.sh --workload value_window16 --seed 1 --seconds 1 --trace 0 \
    | tail -n 1 | grep -q '"correct":true'
echo "verify: OK"
