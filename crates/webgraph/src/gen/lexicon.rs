//! Word pools used to synthesise URLs, anchors and filler text.
//!
//! The paper stresses language independence: its 18 sites span 20+ languages
//! and the crawler must learn from *structure*, not vocabulary. The generator
//! therefore draws page slugs, anchor texts and body text from per-language
//! pools, and multilingual profiles mix languages across site sections.

use rand::Rng;

/// Languages used by the site profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lang {
    En,
    Fr,
    Ja,
    Ar,
    Es,
    De,
}

/// All supported languages (used by multilingual profiles).
pub const ALL_LANGS: [Lang; 6] = [Lang::En, Lang::Fr, Lang::Ja, Lang::Ar, Lang::Es, Lang::De];

/// Topic-ish nouns for slugs and titles.
pub fn nouns(lang: Lang) -> &'static [&'static str] {
    match lang {
        Lang::En => &[
            "population", "employment", "education", "health", "justice", "budget", "census",
            "survey", "poverty", "migration", "housing", "energy", "transport", "climate",
            "trade", "wages", "crime", "elections", "agriculture", "industry", "pensions",
            "taxation", "tourism", "fisheries", "research", "innovation",
        ],
        Lang::Fr => &[
            "population", "emploi", "enseignement", "sante", "justice", "budget", "recensement",
            "enquete", "pauvrete", "migration", "logement", "energie", "transports", "climat",
            "commerce", "salaires", "delinquance", "elections", "agriculture", "industrie",
            "retraites", "fiscalite", "tourisme", "peche", "recherche", "collectivites",
        ],
        Lang::Ja => &[
            "jinko", "koyou", "kyouiku", "kenkou", "shihou", "yosan", "kokusei", "chousa",
            "hinkon", "ijuu", "juutaku", "enerugi", "koutsuu", "kikou", "boueki", "chingin",
            "hanzai", "senkyo", "nougyou", "sangyou", "nenkin", "zeisei", "kankou",
        ],
        Lang::Ar => &[
            "sukkan", "amal", "talim", "sihha", "adala", "mizaniya", "tadad", "istitlaa",
            "faqr", "hijra", "iskan", "taqa", "naql", "munakh", "tijara", "ujur", "jarima",
            "intikhabat", "ziraa", "sinaa", "taqaud",
        ],
        Lang::Es => &[
            "poblacion", "empleo", "educacion", "salud", "justicia", "presupuesto", "censo",
            "encuesta", "pobreza", "migracion", "vivienda", "energia", "transporte", "clima",
            "comercio", "salarios", "delito", "elecciones", "agricultura", "industria",
        ],
        Lang::De => &[
            "bevoelkerung", "arbeit", "bildung", "gesundheit", "justiz", "haushalt", "zensus",
            "erhebung", "armut", "migration", "wohnen", "energie", "verkehr", "klima",
            "handel", "loehne", "kriminalitaet", "wahlen", "landwirtschaft", "industrie",
        ],
    }
}

/// Qualifier words for two-part slugs.
fn qualifiers(lang: Lang) -> &'static [&'static str] {
    match lang {
        Lang::En => &[
            "annual", "quarterly", "regional", "national", "monthly", "detailed", "summary",
            "historical", "provisional", "revised", "by-age", "by-sector", "by-region",
        ],
        Lang::Fr => &[
            "annuel", "trimestriel", "regional", "national", "mensuel", "detaille", "synthese",
            "historique", "provisoire", "revise", "par-age", "par-secteur", "par-region",
        ],
        Lang::Ja => &["nenji", "shihanki", "chiiki", "zenkoku", "getsuji", "shousai", "gaiyou"],
        Lang::Ar => &["sanawi", "rubai", "iqlimi", "watani", "shahri", "mufassal", "mulakhkhas"],
        Lang::Es => &["anual", "trimestral", "regional", "nacional", "mensual", "detallado"],
        Lang::De => &["jaehrlich", "quartal", "regional", "national", "monatlich", "detail"],
    }
}

/// "Download"-flavoured anchor words (the kind TRES keys on).
pub(crate) fn download_words(lang: Lang) -> &'static [&'static str] {
    match lang {
        Lang::En => &["Download", "Download file", "Get dataset", "Data file", "Export data", "Full table"],
        Lang::Fr => &["Telecharger", "Telecharger le fichier", "Donnees", "Exporter", "Tableau complet"],
        Lang::Ja => &["Daunrodo", "Deta shutoku", "Fairu", "Hyou zentai"],
        Lang::Ar => &["Tahmil", "Tahmil almilaff", "Bayanat", "Tasdir"],
        Lang::Es => &["Descargar", "Descargar archivo", "Datos", "Exportar", "Tabla completa"],
        Lang::De => &["Herunterladen", "Datei laden", "Daten", "Exportieren", "Gesamttabelle"],
    }
}

/// Generic navigation words.
pub fn nav_words(lang: Lang) -> &'static [&'static str] {
    match lang {
        Lang::En => &["Home", "About", "Publications", "Statistics", "Data", "News", "Contact", "Topics"],
        Lang::Fr => &["Accueil", "A propos", "Publications", "Statistiques", "Donnees", "Actualites", "Contact", "Themes"],
        Lang::Ja => &["Houmu", "Gaiyou", "Shuppan", "Toukei", "Deta", "Nyusu", "Renraku"],
        Lang::Ar => &["Raisiya", "Hawl", "Manshurat", "Ihsaat", "Bayanat", "Akhbar"],
        Lang::Es => &["Inicio", "Acerca", "Publicaciones", "Estadisticas", "Datos", "Noticias"],
        Lang::De => &["Start", "Ueber", "Publikationen", "Statistik", "Daten", "Nachrichten"],
    }
}

/// Filler sentence fragments for body paragraphs.
pub fn filler(lang: Lang) -> &'static [&'static str] {
    match lang {
        Lang::En => &[
            "This page presents official statistics compiled by the national office.",
            "Figures are revised when new administrative sources become available.",
            "The methodology follows international classification standards.",
            "Data cover the reference period and all administrative regions.",
            "Estimates are seasonally adjusted unless otherwise noted.",
        ],
        Lang::Fr => &[
            "Cette page presente les statistiques officielles compilees par le service national.",
            "Les chiffres sont revises lorsque de nouvelles sources administratives sont disponibles.",
            "La methodologie suit les normes internationales de classification.",
            "Les donnees couvrent la periode de reference et toutes les regions.",
        ],
        Lang::Ja => &[
            "Kono peji wa kouteki toukei wo keisai shiteimasu.",
            "Suuchi wa aratana gyousei shiryou ni motozuki kaitei saremasu.",
            "Deta wa taishou kikan to subete no chiiki wo fukumimasu.",
        ],
        Lang::Ar => &[
            "Taqdim alihsaat alrasmiya almusajjala min almaktab alwatani.",
            "Yatimmu tahdith alarqam inda tawaffur masadir jadida.",
        ],
        Lang::Es => &[
            "Esta pagina presenta estadisticas oficiales compiladas por la oficina nacional.",
            "Las cifras se revisan cuando hay nuevas fuentes administrativas.",
        ],
        Lang::De => &[
            "Diese Seite enthaelt amtliche Statistiken des nationalen Amtes.",
            "Die Zahlen werden bei neuen Verwaltungsquellen ueberarbeitet.",
        ],
    }
}

/// Picks a random element of a slice.
pub fn pick<'a, R: Rng + ?Sized>(rng: &mut R, pool: &'a [&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

/// A `noun-qualifier-NN` slug, URL-safe by construction.
pub(crate) fn slug<R: Rng + ?Sized>(rng: &mut R, lang: Lang) -> String {
    let n = pick(rng, nouns(lang));
    let q = pick(rng, qualifiers(lang));
    format!("{n}-{q}-{:02}", rng.gen_range(0..100))
}

/// A short title like "Population annual 2021".
pub fn title<R: Rng + ?Sized>(rng: &mut R, lang: Lang) -> String {
    let n = pick(rng, nouns(lang));
    let q = pick(rng, qualifiers(lang));
    let year = rng.gen_range(1990..2026);
    let mut t = String::with_capacity(n.len() + q.len() + 6);
    let mut chars = n.chars();
    if let Some(c) = chars.next() {
        t.extend(c.to_uppercase());
        t.push_str(chars.as_str());
    }
    t.push(' ');
    t.push_str(q);
    t.push(' ');
    t.push_str(&year.to_string());
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn pools_nonempty_for_all_langs() {
        for lang in ALL_LANGS {
            assert!(!nouns(lang).is_empty());
            assert!(!qualifiers(lang).is_empty());
            assert!(!download_words(lang).is_empty());
            assert!(!nav_words(lang).is_empty());
            assert!(!filler(lang).is_empty());
        }
    }

    #[test]
    fn slug_is_url_safe() {
        let mut rng = StdRng::seed_from_u64(1);
        for lang in ALL_LANGS {
            for _ in 0..50 {
                let s = slug(&mut rng, lang);
                assert!(s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-'), "{s}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..10).map(|_| slug(&mut rng, Lang::Fr)).collect()
        };
        let b: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..10).map(|_| slug(&mut rng, Lang::Fr)).collect()
        };
        assert_eq!(a, b);
    }
}
