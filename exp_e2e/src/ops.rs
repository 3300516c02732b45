//! The server workloads' operations: what each request is, what answer
//! it must get, and the seeded streams that produce them.
//!
//! Expected answers are computed here by linear scans over the records
//! the store holds after set-up, independently of the search index and
//! the record catalog the server answers from.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use preserva_metadata::record::Record;
use preserva_metadata::value::Value;
use preserva_search::SearchConfig;
use preserva_taxonomy::fuzzy::{best_match, damerau_levenshtein};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::Value as Json;

pub const TENANT: &str = "bench";
pub const KEY: &str = "bench-key";

/// Operation kinds; each maps to one server route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Get,
    Search,
    Fresh,
    Fuzzy,
    Facets,
    Scan,
    Stats,
    Put,
}

impl Kind {
    pub const ALL: [Kind; 8] = [
        Kind::Get,
        Kind::Search,
        Kind::Fresh,
        Kind::Fuzzy,
        Kind::Facets,
        Kind::Scan,
        Kind::Stats,
        Kind::Put,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Get => "get",
            Kind::Search => "search",
            Kind::Fresh => "fresh_search",
            Kind::Fuzzy => "fuzzy",
            Kind::Facets => "facets",
            Kind::Scan => "scan",
            Kind::Stats => "stats",
            Kind::Put => "put",
        }
    }

    /// Span name of one HTTP round trip.
    pub fn http_span(self) -> &'static str {
        match self {
            Kind::Get => "http.get",
            Kind::Search => "http.search",
            Kind::Fresh => "http.fresh_search",
            Kind::Fuzzy => "http.fuzzy",
            Kind::Facets => "http.facets",
            Kind::Scan => "http.scan",
            Kind::Stats => "http.stats",
            Kind::Put => "http.put",
        }
    }

    /// Span name of one in-process `routes::route` call. A fresh search
    /// is the search route.
    pub fn route_span(self) -> &'static str {
        match self {
            Kind::Get => "route.get",
            Kind::Search | Kind::Fresh => "route.search",
            Kind::Fuzzy => "route.fuzzy",
            Kind::Facets => "route.facets",
            Kind::Scan => "route.scan",
            Kind::Stats => "route.stats",
            Kind::Put => "route.put",
        }
    }

    /// Span name of one op replayed through the layer calls.
    pub fn layer_span(self) -> &'static str {
        match self {
            Kind::Get => "layers.get",
            Kind::Search => "layers.search",
            Kind::Fresh => "layers.fresh_search",
            Kind::Fuzzy => "layers.fuzzy",
            Kind::Facets => "layers.facets",
            Kind::Scan => "layers.scan",
            Kind::Stats => "layers.stats",
            Kind::Put => "layers.put",
        }
    }
}

#[derive(Debug, Clone)]
pub enum Op {
    Get {
        id: String,
    },
    /// Token search over every indexed field.
    Search {
        q: String,
        total: usize,
    },
    /// Search for the token the latest PUT wrote into `location`.
    Fresh {
        q: String,
        id: String,
    },
    Fuzzy {
        q: String,
        winner: String,
    },
    Facets,
    ScanSpecies {
        species: String,
        total: usize,
    },
    ScanStateYear {
        state: String,
        year: i32,
        total: usize,
    },
    Stats,
    Put {
        record: Arc<Record>,
        body: Arc<Vec<u8>>,
    },
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Get { .. } => Kind::Get,
            Op::Search { .. } => Kind::Search,
            Op::Fresh { .. } => Kind::Fresh,
            Op::Fuzzy { .. } => Kind::Fuzzy,
            Op::Facets => Kind::Facets,
            Op::ScanSpecies { .. } | Op::ScanStateYear { .. } => Kind::Scan,
            Op::Stats => Kind::Stats,
            Op::Put { .. } => Kind::Put,
        }
    }

    pub fn method(&self) -> &'static str {
        match self {
            Op::Put { .. } => "PUT",
            _ => "GET",
        }
    }

    /// Path under the tenant, and the raw (encoded) query string.
    pub fn path_query(&self) -> (String, String) {
        let base = format!("/v1/{TENANT}");
        match self {
            Op::Get { id } => (format!("{base}/records/{}", enc(id)), String::new()),
            Op::Search { q, .. } => (format!("{base}/search"), format!("q={}", enc(q))),
            Op::Fresh { q, .. } => (
                format!("{base}/search"),
                format!("q={}&field=location", enc(q)),
            ),
            Op::Fuzzy { q, .. } => (
                format!("{base}/search"),
                format!("fuzzy={}&distance=2", enc(q)),
            ),
            Op::Facets => (format!("{base}/facets"), String::new()),
            Op::ScanSpecies { species, .. } => (
                format!("{base}/records"),
                format!("species={}&limit=50", enc(species)),
            ),
            Op::ScanStateYear { state, year, .. } => (
                format!("{base}/records"),
                format!("state={}&year={year}&limit=50", enc(state)),
            ),
            Op::Stats => (format!("{base}/stats"), String::new()),
            Op::Put { .. } => (format!("{base}/records"), String::new()),
        }
    }

    pub fn target(&self) -> String {
        match self.path_query() {
            (p, q) if q.is_empty() => p,
            (p, q) => format!("{p}?{q}"),
        }
    }

    pub fn body(&self) -> &[u8] {
        match self {
            Op::Put { body, .. } => body,
            _ => &[],
        }
    }

    /// Whether a response is the right answer. With `strict` off only
    /// the status (and a GET's id) is checked: the traced replays run on
    /// copies whose contents have moved past the precomputed answers.
    pub fn check(&self, status: u16, body: &[u8], n_records: usize, strict: bool) -> bool {
        let want = if matches!(self, Op::Put { .. }) {
            201
        } else {
            200
        };
        if status != want {
            return false;
        }
        let Ok(v) = serde_json::from_slice::<Json>(body) else {
            return false;
        };
        match self {
            Op::Get { id } => v["record"]["id"].as_str() == Some(id),
            Op::Fresh { id, .. } => {
                !strict
                    || (v["total"].as_u64() == Some(1)
                        && v["ids"]
                            .as_array()
                            .is_some_and(|a| a.len() == 1 && a[0].as_str() == Some(id.as_str())))
            }
            _ if !strict => true,
            Op::Search { total, .. }
            | Op::ScanSpecies { total, .. }
            | Op::ScanStateYear { total, .. } => v["total"].as_u64() == Some(*total as u64),
            Op::Fuzzy { winner, .. } => v["match"]["name"].as_str() == Some(winner.as_str()),
            Op::Facets => v["facets"].as_object().is_some_and(|facets| {
                !facets.is_empty()
                    && facets.values().all(|counts| {
                        counts.as_object().is_some_and(|c| {
                            c.values().filter_map(Json::as_u64).sum::<u64>() == n_records as u64
                        })
                    })
            }),
            Op::Stats => v["records"].as_u64() == Some(n_records as u64),
            Op::Put { record, .. } => v["id"].as_str() == Some(record.id.as_str()),
        }
    }
}

/// Percent-encode everything but unreserved ASCII.
pub fn enc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || b"-._~".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Expected answers, computed once from the stored records.
pub struct Answers {
    pub records: Vec<Record>,
    /// token → records mentioning it in any indexed field.
    pub df: BTreeMap<String, usize>,
    /// Tokens matching at least 10% of records.
    pub broad: Vec<String>,
    /// Tokens matching under 1% of records.
    pub narrow: Vec<String>,
    /// Distinct indexed species names (what the fuzzy index holds).
    pub names: Vec<String>,
    pub species: BTreeMap<String, usize>,
    pub state_year: BTreeMap<(String, i32), usize>,
}

impl Answers {
    pub fn build(mut records: Vec<Record>) -> Answers {
        records.sort_by(|a, b| a.id.cmp(&b.id));
        let config = SearchConfig::default();
        let n = records.len();
        let mut df: BTreeMap<String, usize> = BTreeMap::new();
        let mut names = BTreeSet::new();
        let mut species = BTreeMap::new();
        let mut state_year = BTreeMap::new();
        for r in &records {
            let mut tokens = BTreeSet::new();
            for field in &config.fields {
                if let Some(v) = r.get(field) {
                    let text = v.as_text().map_or_else(|| format!("{v:?}"), str::to_string);
                    tokens.extend(preserva_search::tokenize(&text));
                }
            }
            for t in tokens {
                *df.entry(t).or_insert(0) += 1;
            }
            if let Some(s) = r.get_text(&config.name_field) {
                if !s.trim().is_empty() {
                    names.insert(s.trim().to_string());
                }
                *species.entry(s.to_string()).or_insert(0) += 1;
            }
            if let (Some(state), Some(Value::Date(d))) =
                (r.get_text("state"), r.get("collect_date"))
            {
                *state_year.entry((state.to_string(), d.year)).or_insert(0) += 1;
            }
        }
        let broad = df
            .iter()
            .filter(|(_, &c)| c * 10 >= n)
            .map(|(t, _)| t.clone())
            .collect();
        let narrow = df
            .iter()
            .filter(|(_, &c)| c * 100 < n)
            .map(|(t, _)| t.clone())
            .collect();
        Answers {
            records,
            df,
            broad,
            narrow,
            names: names.into_iter().collect(),
            species,
            state_year,
        }
    }
}

/// Which traffic a stream produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 70% GET (Zipf ids), 15% token search, 10% fuzzy, 5% facets.
    Read,
    /// 45% species listing, 45% state+year listing, 10% stats.
    Browse,
    /// PUTs of existing records; every 50th op searches the latest edit.
    Write,
}

/// Zipf(s) ranks over `n` items, by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen::<f64>();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Two substitutions in the epithet: a misspelling at distance 2 of a
/// name the collection holds.
fn misspell(name: &str, rng: &mut StdRng) -> Option<String> {
    let (genus, epithet) = name.split_once(' ')?;
    let mut chars: Vec<char> = epithet.chars().collect();
    if chars.len() < 4 {
        return None;
    }
    let mut positions: Vec<usize> = (0..chars.len()).collect();
    positions.shuffle(rng);
    for &i in &positions[..2] {
        let old = chars[i];
        let mut c = old;
        while c == old {
            c = (b'a' + rng.gen_range(0..26u8)) as char;
        }
        chars[i] = c;
    }
    let q = format!("{genus} {}", chars.into_iter().collect::<String>());
    (damerau_levenshtein(&q.to_lowercase(), &name.to_lowercase()) == 2).then_some(q)
}

/// A seeded, endless operation stream.
pub struct OpGen<'a> {
    answers: &'a Answers,
    mix: Mix,
    rng: StdRng,
    zipf: Zipf,
    /// Zipf rank → record index, so hot ids are spread over the key space.
    rank_to_record: Vec<usize>,
    fuzzy_pool: Vec<(String, String)>,
    /// Write mix: the latest body of every record, as the writer knows it.
    pub current: Vec<Record>,
    /// Write mix: record indices written so far.
    pub touched: BTreeSet<usize>,
    puts: u64,
    ops: u64,
    last_put: Option<(String, String)>,
    tag: &'static str,
}

impl<'a> OpGen<'a> {
    /// `stream` separates independent streams drawn from one seed.
    pub fn new(answers: &'a Answers, mix: Mix, seed: u64, stream: u64) -> OpGen<'a> {
        let mut rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let n = answers.records.len();
        let mut rank_to_record: Vec<usize> = (0..n).collect();
        rank_to_record.shuffle(&mut rng);
        let mut fuzzy_pool = Vec::new();
        if mix == Mix::Read && !answers.names.is_empty() {
            while fuzzy_pool.len() < 64 {
                let name = &answers.names[rng.gen_range(0..answers.names.len())];
                let Some(q) = misspell(name, &mut rng) else {
                    continue;
                };
                let winner = best_match(&q, answers.names.iter().map(String::as_str), 2)
                    .map(|m| m.candidate.to_string());
                if let Some(w) = winner {
                    fuzzy_pool.push((q, w));
                }
            }
        }
        OpGen {
            answers,
            mix,
            rng,
            zipf: Zipf::new(n.max(1), 0.99),
            rank_to_record,
            fuzzy_pool,
            current: if mix == Mix::Write {
                answers.records.clone()
            } else {
                Vec::new()
            },
            touched: BTreeSet::new(),
            puts: 0,
            ops: 0,
            last_put: None,
            tag: "edit",
        }
    }

    /// Tag written into `location` by PUTs (`edit<n>`, or another prefix
    /// so a second stream's tokens never collide with the first's).
    pub fn with_tag(mut self, tag: &'static str) -> Self {
        self.tag = tag;
        self
    }

    fn pick<'b>(&mut self, from: &'b [String]) -> &'b String {
        &from[self.rng.gen_range(0..from.len())]
    }

    pub fn get(&mut self) -> Op {
        let rank = self.zipf.sample(&mut self.rng);
        Op::Get {
            id: self.answers.records[self.rank_to_record[rank]].id.clone(),
        }
    }

    pub fn search(&mut self) -> Op {
        let a = self.answers;
        let pool = if self.rng.gen_range(0..3) == 0 || a.narrow.is_empty() {
            &a.broad
        } else {
            &a.narrow
        };
        let q = self.pick(pool).clone();
        Op::Search { total: a.df[&q], q }
    }

    pub fn fuzzy(&mut self) -> Op {
        let (q, winner) = self.fuzzy_pool[self.rng.gen_range(0..self.fuzzy_pool.len())].clone();
        Op::Fuzzy { q, winner }
    }

    fn scan(&mut self, by_species: bool) -> Op {
        let a = self.answers;
        loop {
            let r = &a.records[self.rng.gen_range(0..a.records.len())];
            if by_species {
                if let Some(s) = r.get_text("species") {
                    return Op::ScanSpecies {
                        species: s.to_string(),
                        total: a.species[s],
                    };
                }
            } else if let (Some(state), Some(Value::Date(d))) =
                (r.get_text("state"), r.get("collect_date"))
            {
                let key = (state.to_string(), d.year);
                return Op::ScanStateYear {
                    total: a.state_year[&key],
                    state: key.0,
                    year: key.1,
                };
            }
        }
    }

    /// Rewrite one record (uniform id): a unique `location` token, and
    /// every fifth PUT another species from the collection.
    pub fn put(&mut self) -> Op {
        let idx = self.rng.gen_range(0..self.current.len());
        let n = self.puts;
        self.puts += 1;
        let tag = format!("{}{n}", self.tag);
        let mut record = self.current[idx].clone();
        record.set("location", Value::Text(tag.clone()));
        if n % 5 == 4 {
            let old = record.get_text("species").map(str::to_string);
            let names = &self.answers.names;
            loop {
                let s = &names[self.rng.gen_range(0..names.len())];
                if Some(s) != old.as_ref() || names.len() < 2 {
                    record.set("species", Value::Text(s.clone()));
                    break;
                }
            }
        }
        self.current[idx] = record.clone();
        self.touched.insert(idx);
        self.last_put = Some((tag, record.id.clone()));
        let body = serde_json::to_vec(&record).expect("records serialize");
        Op::Put {
            record: Arc::new(record),
            body: Arc::new(body),
        }
    }

    fn fresh(&mut self) -> Op {
        match self.last_put.clone() {
            Some((q, id)) => Op::Fresh { q, id },
            None => self.put(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        self.ops += 1;
        match self.mix {
            Mix::Read => match self.rng.gen_range(0..100) {
                0..=69 => self.get(),
                70..=84 => self.search(),
                85..=94 => self.fuzzy(),
                _ => Op::Facets,
            },
            Mix::Browse => match self.rng.gen_range(0..100) {
                0..=44 => self.scan(true),
                45..=89 => self.scan(false),
                _ => Op::Stats,
            },
            Mix::Write => {
                if self.ops.is_multiple_of(50) {
                    self.fresh()
                } else {
                    self.put()
                }
            }
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

/// A fixed stream that reaches every route: replayed after each traced
/// workload's own prefix, so every layer metric is measured on every
/// workload's store even when the workload's traffic never calls it.
pub fn probe_stream(answers: &Answers, seed: u64) -> Vec<Op> {
    let mut read = OpGen::new(answers, Mix::Read, seed, 101);
    let mut browse = OpGen::new(answers, Mix::Browse, seed, 102);
    let mut write = OpGen::new(answers, Mix::Write, seed, 103).with_tag("probe");
    let mut ops = Vec::new();
    ops.extend((0..40).map(|_| read.get()));
    ops.extend((0..16).map(|_| read.search()));
    ops.extend((0..16).map(|_| read.fuzzy()));
    ops.extend((0..8).map(|_| Op::Facets));
    ops.push(browse.scan(true));
    ops.push(Op::Stats);
    for _ in 0..16 {
        ops.push(write.put());
    }
    ops.push(write.fresh());
    ops.shuffle(&mut StdRng::seed_from_u64(seed ^ 104));
    // A fresh search must follow the PUT it looks for.
    let fresh = ops.iter().position(|o| o.kind() == Kind::Fresh);
    if let Some(i) = fresh {
        let op = ops.remove(i);
        ops.push(op);
    }
    ops
}
