//! Table 5, Figure 14 and Tables 8–16 — the URL-classifier study:
//! {LR, SVM, NB, PA} × {URL_ONLY, URL_CONT} on the fully-crawled sites,
//! with the intra-site crawl metric, the inter-site MR column, per-variant
//! confusion matrices and the aggregate matrix of Appendix B.5.

use crate::metrics::req90_pct;
use crate::runner::{mean_or_inf, par_map, RunOpts};
use crate::setup::{build_site_for, reference, run_with_strategy, EvalConfig, SbTuning};
use crate::tables::{fmt_pct, markdown, write_csv, write_text};
use sb_crawler::strategies::SbStrategy;
use sb_ml::{Class2, Class3, Confusion, FeatureSet, ModelKind};
use sb_webgraph::gen::profiles::fully_crawled_codes;
use sb_webgraph::gen::SiteSource;
use sb_webgraph::UrlClass;

/// The eight studied variants, in Table 5 row order.
pub fn variants() -> Vec<(String, ModelKind, FeatureSet)> {
    let mut out = Vec::new();
    for features in [FeatureSet::UrlOnly, FeatureSet::UrlContent] {
        for model in ModelKind::ALL {
            let fname = match features {
                FeatureSet::UrlOnly => "URL_ONLY",
                FeatureSet::UrlContent => "URL_CONT",
            };
            out.push((format!("{fname}-{}", model.short_name()), model, features));
        }
    }
    out
}

struct VariantResult {
    req90_by_site: Vec<Option<f64>>,
    confusion: Confusion,
    /// One representative trace per site for Figure 14.
    traces: Vec<(String, Vec<sb_crawler::TracePoint>)>,
}

fn run_variant(
    cfg: &EvalConfig,
    codes: &[&str],
    model: ModelKind,
    features: FeatureSet,
) -> VariantResult {
    let mut req90_by_site = Vec::new();
    let mut confusion = Confusion::new();
    let mut traces = Vec::new();
    for code in codes {
        let site = build_site_for(cfg, code);
        let site_ref = reference(cfg, code);
        let seeds: Vec<u64> = (0..cfg.seeds).collect();
        let results = par_map(&seeds, cfg.jobs, |&seed| {
            let tuning = SbTuning { model, features, ..Default::default() };
            let mut strategy = SbStrategy::with_classifier(
                tuning.sb_config(),
                sb_ml::UrlClassifier::new(model, features, tuning.batch),
            )
            .record_predictions();
            let opts = RunOpts { scale: cfg.scale, ..Default::default() };
            let out = run_with_strategy(&site, &mut strategy, false, seed, &opts);
            // Score predictions against ground truth.
            let mut conf = Confusion::new();
            for (url, predicted) in strategy.predictions() {
                let truth = match site.lookup(url).map(|id| site.true_class(id)) {
                    Some(UrlClass::Html) => Class3::Html,
                    Some(UrlClass::Target) => Class3::Target,
                    _ => Class3::Neither,
                };
                let pred = match predicted {
                    Class2::Html => Class3::Html,
                    Class2::Target => Class3::Target,
                };
                conf.record(truth, pred);
            }
            (req90_pct(&out, &site_ref), conf, out.trace.resampled(300))
        });
        let metrics: Vec<Option<f64>> = results.iter().map(|(m, _, _)| *m).collect();
        req90_by_site.push(mean_or_inf(&metrics));
        for (_, conf, _) in &results {
            confusion.merge(conf);
        }
        if let Some((_, _, trace)) = results.into_iter().next() {
            traces.push(((*code).to_owned(), trace));
        }
    }
    VariantResult { req90_by_site, confusion, traces }
}

fn confusion_markdown(c: &Confusion) -> String {
    let p = c.percentages();
    let headers: Vec<String> =
        ["True \\ Predicted", "HTML (%)", "Target (%)", "Neither (%)"].map(String::from).to_vec();
    let rows: Vec<Vec<String>> = Class3::ALL
        .iter()
        .map(|t| {
            let mut row = vec![t.name().to_owned()];
            row.extend(p[t.index()].iter().map(|v| format!("{v:.2}")));
            row
        })
        .collect();
    markdown(&headers, &rows)
}

pub fn run(cfg: &EvalConfig) -> String {
    let codes: Vec<&str> = fully_crawled_codes()
        .into_iter()
        .filter(|c| match &cfg.sites {
            Some(sel) => sel.iter().any(|s| s == c),
            None => true,
        })
        .collect();
    let mut headers = vec!["Variant".to_owned()];
    headers.extend(codes.iter().map(|c| (*c).to_owned()));
    headers.push("MR".to_owned());

    let mut rows = Vec::new();
    let mut confusion_md = String::from("\n## Tables 8–15 — confusion matrices per variant\n");
    let mut aggregate = Confusion::new();
    for (label, model, features) in variants() {
        let r = run_variant(cfg, &codes, model, features);
        let mut row = vec![label.clone()];
        row.extend(r.req90_by_site.iter().map(|m| fmt_pct(*m)));
        row.push(format!("{:.2}", r.confusion.misclassification_rate()));
        rows.push(row);
        confusion_md.push_str(&format!("\n### {label}\n\n{}", confusion_markdown(&r.confusion)));
        aggregate.merge(&r.confusion);
        // Figure 14 CSVs.
        for (code, trace) in &r.traces {
            let fig_rows: Vec<Vec<String>> = trace
                .iter()
                .map(|p| vec![p.requests.to_string(), p.targets.to_string()])
                .collect();
            write_csv(
                &cfg.out_dir.join(format!("fig14/{code}_{}.csv", label.replace('-', "_"))),
                &["requests", "targets"].map(String::from),
                &fig_rows,
            )
            .expect("write fig14 csv");
        }
    }
    let mut md = format!(
        "## Table 5 — classifier variants: intra-site crawl metric (req90 %) and inter-site MR\n\n{}",
        markdown(&headers, &rows)
    );
    md.push_str(&confusion_md);
    md.push_str(&format!(
        "\n### Table 16 — aggregate confusion matrix (all variants pooled)\n\n{}",
        confusion_markdown(&aggregate)
    ));
    write_csv(
        &cfg.out_dir.join("table5.csv"),
        &headers,
        &rows,
    )
    .expect("write table5 csv");
    write_text(&cfg.out_dir.join("table5.md"), &md).expect("write table5.md");
    md
}
