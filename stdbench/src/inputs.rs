//! Seeded inputs. Everything the program receives is generated here from
//! the run's seed with `lucid_corpus`: corpus sources, user-script
//! sources and `D_IN` as CSV text. The generated frames themselves are
//! dropped once their CSV text and digest are taken, so the program only
//! ever sees the text.

use lucidscript::core::batch::BatchScript;
use lucidscript::corpus::profiles::ProfileKey;
use lucidscript::corpus::script_gen::generate_script;
use lucidscript::corpus::Profile;
use lucidscript::frame::csv::write_csv_str;
use lucidscript::frame::{DataFrame, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One new user script at a time against each of the six profiles,
    /// full-scale `D_IN`, §5.2 row sampling.
    InteractiveSampled,
    /// Model-performance intent on mid-sized `D_IN` with sampling off.
    ExecUnsampled,
    /// `standardize_corpus` over whole corpora, two jobs, memo on.
    BatchCorpus,
}

impl Workload {
    /// Every workload the command runs.
    pub const ALL: [Workload; 3] = [
        Workload::InteractiveSampled,
        Workload::ExecUnsampled,
        Workload::BatchCorpus,
    ];

    /// The workloads `BENCHMARK.json` declares, in its order.
    /// `exec-unsampled` runs on demand but is not declared: its peak
    /// memory is set by a single search and spreads across seeds by more
    /// than the widest bound allowed (README, "Reference figures").
    pub const DECLARED: [Workload; 2] = [Workload::InteractiveSampled, Workload::BatchCorpus];

    /// The command-line and `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InteractiveSampled => "interactive-sampled",
            Workload::ExecUnsampled => "exec-unsampled",
            Workload::BatchCorpus => "batch-corpus",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what the command runs; `Smoke` is a reduced
/// size for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Small tables and pools, for tests.
    Smoke,
}

/// Row cap of the §5.2 sampling optimization on the sampled workloads.
pub const SAMPLE_CAP: usize = 150;
/// Model-performance threshold τ_M (percent) of `exec-unsampled`.
pub const TAU_M_PCT: f64 = 1.0;
/// Table-Jaccard threshold τ_J of the sampled workloads (paper default).
pub const TAU_J: f64 = 0.9;
/// Concurrent searches of `batch-corpus`.
pub const BATCH_JOBS: usize = 2;
/// Corpus variants one `batch-corpus` round runs per profile; a round
/// takes the next ones in turn. Six variants in all spread the latency
/// tail over more corpora than one round's three.
pub const BATCH_VARIANTS_PER_ROUND: usize = 3;
/// Every `DUP_EVERY`-th corpus script reappears byte-identical at the end
/// of its batch, as forked notebooks do. A chosen value, not a measured
/// one: one fork per four originals (a fifth of each batch) gives every
/// call about a dozen memo hits, while four of five scripts still run a
/// search. The generated corpora hold almost no exact duplicates of their
/// own, so without forks the memo would serve next to nothing.
pub const DUP_EVERY: usize = 4;

/// Fixed inputs of the known-fault operation, the same on every seed:
/// Titanic at full scale, data and corpus of seed 1, corpus variant 2 and
/// user script 2. The program's search accepts its output although Example
/// 2.1's measure (column names included) puts it below τ_J (0.8808),
/// because `frame::jaccard::value_set` leaves the names out.
const KNOWN_FAULT_SEED: u64 = 1;
const KNOWN_FAULT_VARIANT: usize = 2;
const KNOWN_FAULT_SCRIPT: usize = 2;

/// Salt separating user-script seeds from corpus seeds.
const USER_SALT: u64 = 0x05E5_0000_0000_0000;
/// Salt separating batch-variant corpus seeds from the base corpus.
const VARIANT_SALT: u64 = 0x0BA7_C400_0000_0000;

/// One profile's generated inputs.
#[derive(Debug, Clone)]
pub struct ProfileInput {
    /// The dataset profile.
    pub profile: Profile,
    /// `D_IN` as CSV text.
    pub csv: String,
    /// Digest of the generated frame (see [`frame_digest`]).
    pub digest: u64,
    /// Rows of `D_IN`.
    pub rows: usize,
    /// Independently drawn corpora (interactive and exec workloads); user
    /// script `i` is standardized against corpus `i % corpora.len()`.
    pub corpora: Vec<Vec<String>>,
    /// User scripts, standardized in order and then cycled.
    pub users: Vec<String>,
    /// Whole batches, one per corpus variant (batch workload).
    pub batches: Vec<Vec<BatchScript>>,
    /// The known-fault operation's inputs (one corpus, one user script),
    /// whose τ_J check gates on Example 2.1's measure with column names.
    pub known_fault: bool,
}

/// All inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload they feed.
    pub workload: Workload,
    /// Per-profile inputs, in round order.
    pub profiles: Vec<ProfileInput>,
}

impl Inputs {
    /// Generates a workload's inputs; the same seed gives the same bytes.
    /// The τ_J workloads end each round with the known-fault operation.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        let mut profiles: Vec<ProfileInput> = plan(workload, scale)
            .into_iter()
            .map(|(profile, rows)| build_profile(workload, profile, rows, seed, scale))
            .collect();
        if workload != Workload::ExecUnsampled {
            profiles.push(known_fault_input());
        }
        Inputs { workload, profiles }
    }

    /// A digest over every input byte, for determinism tests.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for p in &self.profiles {
            p.profile.name.hash(&mut h);
            p.csv.hash(&mut h);
            p.digest.hash(&mut h);
            p.corpora.hash(&mut h);
            p.users.hash(&mut h);
            for batch in &p.batches {
                for s in batch {
                    s.name.hash(&mut h);
                    s.source.hash(&mut h);
                }
            }
        }
        h.finish()
    }

    /// Rounds in one full pass over every pool: the run always completes
    /// at least this many so `re_improvement_pct` covers the same scripts
    /// on every run of a seed.
    pub fn pass_rounds(&self) -> usize {
        self.profiles
            .iter()
            .map(|p| {
                p.users
                    .len()
                    .max(p.batches.len().div_ceil(BATCH_VARIANTS_PER_ROUND))
            })
            .max()
            .unwrap_or(1)
            .max(1)
    }
}

/// Profiles and their `D_IN` row counts per workload.
fn plan(workload: Workload, scale: Scale) -> Vec<(Profile, usize)> {
    let smoke = scale == Scale::Smoke;
    match workload {
        // Table 3 scale: 2.6k–744.3k rows.
        Workload::InteractiveSampled => Profile::all()
            .into_iter()
            .map(|p| {
                let rows = if smoke { 300 } else { p.n_rows_full };
                (p, rows)
            })
            .collect(),
        // Mid-sized tables, sized so that a run standardizes a few hundred
        // scripts (the p90 needs ten beyond it). Per row, NLP and Sales
        // cost several times more than House and Spaceship, so their sizes
        // even out the per-script time and keep the pooled latency
        // distribution unimodal.
        Workload::ExecUnsampled => [
            (Profile::nlp(), 600),
            (Profile::sales(), 500),
            (Profile::house(), 2000),
            (Profile::spaceship(), 2000),
        ]
        .into_iter()
        .map(|(p, rows)| (p, if smoke { 120 } else { rows }))
        .collect(),
        // The profiles whose searches are search-bound at the sample cap.
        Workload::BatchCorpus => [Profile::titanic(), Profile::spaceship(), Profile::medical()]
            .into_iter()
            .map(|p| {
                let rows = if smoke { 300 } else { p.n_rows_full };
                (p, rows)
            })
            .collect(),
    }
}

/// User scripts per profile (interactive, exec) or corpus variants per
/// profile (batch).
fn pool_size(workload: Workload, scale: Scale) -> usize {
    match (workload, scale) {
        (Workload::InteractiveSampled, Scale::Full) => 24,
        (Workload::ExecUnsampled, Scale::Full) => 30,
        (Workload::BatchCorpus, Scale::Full) => 6,
        (Workload::BatchCorpus, Scale::Smoke) => 1,
        (_, Scale::Smoke) => 2,
    }
}

fn build_profile(
    workload: Workload,
    profile: Profile,
    rows: usize,
    seed: u64,
    scale: Scale,
) -> ProfileInput {
    let frame = profile.generate_data(seed, rows as f64 / profile.n_rows_full as f64);
    let csv = write_csv_str(&frame);
    let digest = frame_digest(&frame);
    let rows = frame.n_rows();
    drop(frame);
    let pool = pool_size(workload, scale);
    let tag = profile_tag(profile.key);
    let variants = corpus_variants(workload, scale);
    let (corpora, users, batches) = match workload {
        Workload::BatchCorpus => {
            let batches = (0..pool)
                .map(|v| batch_with_forks(&profile, corpus_seed(seed, v), scale))
                .collect();
            (Vec::new(), Vec::new(), batches)
        }
        _ => {
            let corpora = (0..variants)
                .map(|v| {
                    profile
                        .generate_corpus(corpus_seed(seed, v))
                        .into_iter()
                        .map(|m| m.source)
                        .collect()
                })
                .collect();
            let users = (0..pool)
                .map(|i| generate_script(&profile, user_seed(seed, tag, i)).source)
                .collect();
            (corpora, users, Vec::new())
        }
    };
    ProfileInput {
        profile,
        csv,
        digest,
        rows,
        corpora,
        users,
        batches,
        known_fault: false,
    }
}

/// The known-fault operation's inputs: what `interactive-sampled` on seed
/// [`KNOWN_FAULT_SEED`] gives Titanic's user script
/// [`KNOWN_FAULT_SCRIPT`], with its corpus.
fn known_fault_input() -> ProfileInput {
    let profile = Profile::titanic();
    let frame = profile.generate_data(KNOWN_FAULT_SEED, 1.0);
    let csv = write_csv_str(&frame);
    let digest = frame_digest(&frame);
    let rows = frame.n_rows();
    drop(frame);
    let corpus = profile
        .generate_corpus(corpus_seed(KNOWN_FAULT_SEED, KNOWN_FAULT_VARIANT))
        .into_iter()
        .map(|m| m.source)
        .collect();
    let seed = user_seed(
        KNOWN_FAULT_SEED,
        profile_tag(profile.key),
        KNOWN_FAULT_SCRIPT,
    );
    let user = generate_script(&profile, seed).source;
    ProfileInput {
        profile,
        csv,
        digest,
        rows,
        corpora: vec![corpus],
        users: vec![user],
        batches: Vec::new(),
        known_fault: true,
    }
}

/// Seed of user script `i` of the profile tagged `tag`.
fn user_seed(seed: u64, tag: u64, i: usize) -> u64 {
    splitmix(seed ^ USER_SALT ^ (tag << 32) ^ i as u64)
}

/// Corpora drawn per profile on the one-script-at-a-time workloads: a run
/// averages over several corpus draws, so one seed's corpus does not set
/// the run's figures.
fn corpus_variants(workload: Workload, scale: Scale) -> usize {
    match (workload, scale) {
        (_, Scale::Smoke) => 1,
        (Workload::ExecUnsampled, _) => 6,
        _ => 8,
    }
}

/// Seed of corpus variant `v`; variant 0 is the seed's own corpus.
fn corpus_seed(seed: u64, v: usize) -> u64 {
    if v == 0 {
        seed
    } else {
        seed ^ VARIANT_SALT.wrapping_add((v as u64) << 16)
    }
}

/// A profile's generated corpus as batch scripts, with every
/// [`DUP_EVERY`]-th script appended again under a fork name.
fn batch_with_forks(profile: &Profile, corpus_seed: u64, scale: Scale) -> Vec<BatchScript> {
    let mut scripts: Vec<BatchScript> = profile
        .generate_corpus(corpus_seed)
        .into_iter()
        .enumerate()
        .map(|(i, m)| BatchScript::new(format!("script_{i:03}.py"), m.source))
        .collect();
    if scale == Scale::Smoke {
        scripts.truncate(8);
    }
    let forks: Vec<BatchScript> = scripts
        .iter()
        .step_by(DUP_EVERY)
        .map(|s| BatchScript::new(format!("{}__fork", s.name), s.source.clone()))
        .collect();
    scripts.extend(forks);
    scripts
}

fn profile_tag(key: ProfileKey) -> u64 {
    match key {
        ProfileKey::Titanic => 1,
        ProfileKey::House => 2,
        ProfileKey::Nlp => 3,
        ProfileKey::Spaceship => 4,
        ProfileKey::Medical => 5,
        ProfileKey::Sales => 6,
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Digest of a frame's names, column types and every cell, taken from the
/// generated frame before it is dropped and compared with the frame the
/// program ingests from the CSV text.
pub fn frame_digest(df: &DataFrame) -> u64 {
    let mut h = DefaultHasher::new();
    df.n_rows().hash(&mut h);
    for (name, col) in df.iter() {
        name.hash(&mut h);
        format!("{:?}", col.dtype()).hash(&mut h);
        for i in 0..col.len() {
            match col.get(i).expect("row index within the column") {
                Value::Null => 0u8.hash(&mut h),
                Value::Int(v) => (1u8, v).hash(&mut h),
                Value::Float(f) => (2u8, f.to_bits()).hash(&mut h),
                Value::Str(s) => (3u8, s).hash(&mut h),
                Value::Bool(b) => (4u8, b).hash(&mut h),
            }
        }
    }
    h.finish()
}
