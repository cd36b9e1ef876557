//! Workload definitions and the seeded generator.
//!
//! `--seed` is the only input. It decides file names (hence cache stripe
//! and home node), file contents and the request sequence. It does *not*
//! decide the size or popularity distributions: sizes are exact quantiles
//! of the log-uniform range and the quantile a popularity rank receives is
//! a fixed low-discrepancy map, so the popularity-weighted mean body size
//! is identical for every seed and `mb_per_s` spread across seeds measures
//! the server, not the dice.

use std::io;
use std::path::{Path, PathBuf};

/// FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into a running FNV-1a 64 hash.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// splitmix64: seeds the stream generators and names the files.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// xorshift64*: the benchmark's only random stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix(seed) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(α) over ranks `0..n` by inverse CDF; α = 0 is uniform.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-alpha);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Number of closed-loop client threads (= connections in flight).
pub const CLIENTS: usize = 2;
/// `cost=` of every search request: LCG iterations in the demo handler.
pub const SEARCH_COST: u32 = 200_000;
/// Distinct search keys.
pub const SEARCH_KEYS: usize = 20_000;
/// Bytes in every POSTed echo body.
pub const ECHO_BODY: usize = 2048;
/// Generator requests in the dynamic warm-up pass.
pub const DYNAMIC_WARMUP: usize = 2_000;

/// One workload's constants. Names are part of the benchmark's contract.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// swebd `--nodes`.
    pub nodes: usize,
    pub files: usize,
    pub min_size: u64,
    pub max_size: u64,
    /// Zipf exponent of file popularity.
    pub file_alpha: f64,
    /// Keep-alive sessions with the dynamic mix instead of one static GET
    /// per new connection.
    pub dynamic: bool,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "static_small",
        why: "Loopback, closed loop, 2 clients; 2,000 cached files of 512 B-16 KiB, new connection each: per-request overhead (accept, parse, decide, cache hit, head, telemetry, one writev) is everything",
        nodes: 1,
        files: 2000,
        min_size: 512,
        max_size: 16 << 10,
        file_alpha: 0.8,
        dynamic: false,
    },
    Spec {
        name: "static_bulk",
        why: "Loopback, closed loop, 2 clients; 32 files of 1.5 MB (3x the file cache), uniform: bytes moved are everything (transmit path, cache miss-insert-evict); a parse or decide change must not show",
        nodes: 1,
        files: 32,
        min_size: 1_500_000,
        max_size: 1_500_000,
        file_alpha: 0.0,
        dynamic: false,
    },
    Spec {
        name: "cluster_mixed",
        why: "Loopback, closed loop, 2 clients; 3 nodes, 600 files of 100 B-1.5 MB, Zipf 1.0, round-robin over the ports, one 302 followed: only here the broker prices real alternatives under live loadd state",
        nodes: 3,
        files: 600,
        min_size: 100,
        max_size: 1_500_000,
        file_alpha: 1.0,
        dynamic: false,
    },
    Spec {
        name: "dynamic_keepalive",
        why: "Loopback, closed loop, 2 clients; keep-alive, 50% search over 20,000 Zipf keys, 20% POST echo of 2 KiB, 30% small static: no accept per request, request bodies, worker pool, dynamic cache",
        nodes: 1,
        files: 2000,
        min_size: 512,
        max_size: 16 << 10,
        file_alpha: 0.8,
        dynamic: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated document. Index in [`Manifest::files`] = popularity rank.
pub struct FileEntry {
    /// Request path, with the leading `/`.
    pub path: String,
    pub len: u64,
    /// FNV-1a 64 of the contents.
    pub fnv: u64,
}

pub struct Manifest {
    pub files: Vec<FileEntry>,
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Size of the file at popularity `rank`: the log-uniform quantile picked
/// by a golden-ratio stride over the ranks (coprime to `n`, so every
/// quantile is used once and neighbouring ranks get distant sizes).
pub fn size_of_rank(spec: &Spec, rank: usize) -> u64 {
    let n = spec.files;
    let mut stride = (n as f64 / 1.618_033_988_75) as usize | 1;
    while gcd(stride, n) != 1 {
        stride += 2;
    }
    let q = (rank * stride + n / 2) % n;
    let ratio = spec.max_size as f64 / spec.min_size as f64;
    (spec.min_size as f64 * ratio.powf((q as f64 + 0.5) / n as f64)).round() as u64
}

impl Manifest {
    /// Write the docroot under `dir/docroot` and the manifest beside it.
    pub fn generate(spec: &Spec, seed: u64, dir: &Path) -> io::Result<(Manifest, PathBuf)> {
        let docroot = dir.join("docroot");
        std::fs::create_dir_all(&docroot)?;
        let mut files = Vec::with_capacity(spec.files);
        let mut listing = String::new();
        let mut body = Vec::new();
        for rank in 0..spec.files {
            let id = splitmix(seed ^ splitmix(rank as u64));
            let path = format!("/{id:016x}.html");
            let len = size_of_rank(spec, rank);
            let mut rng = Rng::new(id);
            body.clear();
            while (body.len() as u64) < len {
                body.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            body.truncate(len as usize);
            std::fs::write(docroot.join(&path[1..]), &body)?;
            let fnv = fnv1a(FNV_OFFSET, &body);
            listing.push_str(&format!("{path}\t{len}\t{fnv:016x}\n"));
            files.push(FileEntry { path, len, fnv });
        }
        std::fs::write(dir.join("manifest.tsv"), listing)?;
        Ok((Manifest { files }, docroot))
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// `GET` of the file at this popularity rank.
    Get(usize),
    /// `GET /cgi-bin/search?q=<key>&cost=…`.
    Search(u32),
    /// `POST /cgi-bin/echo` with a body unique to this id.
    Echo(u64),
}

/// The deterministic request stream of one client thread.
pub struct RequestGen {
    rng: Rng,
    files: Zipf,
    keys: Option<Zipf>,
    client: u64,
    issued: u64,
}

impl RequestGen {
    pub fn new(spec: &Spec, seed: u64, client: usize) -> RequestGen {
        RequestGen {
            rng: Rng::new(splitmix(seed) ^ (client as u64 + 1)),
            files: Zipf::new(spec.files, spec.file_alpha),
            keys: spec.dynamic.then(|| Zipf::new(SEARCH_KEYS, 1.0)),
            client: client as u64,
            issued: 0,
        }
    }

    pub fn next_req(&mut self) -> Req {
        self.issued += 1;
        let Some(keys) = &self.keys else {
            return Req::Get(self.files.sample(&mut self.rng));
        };
        match self.rng.next_u64() % 10 {
            0..=4 => Req::Search(keys.sample(&mut self.rng) as u32),
            5..=6 => Req::Echo(self.client << 48 | self.issued),
            _ => Req::Get(self.files.sample(&mut self.rng)),
        }
    }
}

/// The search query string; the response must quote it back.
pub fn search_query(key: u32) -> String {
    format!("q=k{key}&cost={SEARCH_COST}")
}

/// The echo body for `id`: unique prefix, fixed padding, printable ASCII.
pub fn echo_body(id: u64) -> Vec<u8> {
    let mut body = format!("id={id:016x}&pad=").into_bytes();
    body.resize(ECHO_BODY, b'x');
    body
}

/// Serialize `req` as the bytes the client writes. HTTP/1.0 with no
/// headers (the paper's client) unless the session is keep-alive.
pub fn wire(req: Req, manifest: &Manifest, keep_alive: bool, out: &mut Vec<u8>) {
    out.clear();
    let conn = if keep_alive { "Connection: keep-alive\r\n" } else { "" };
    match req {
        Req::Get(rank) => {
            let path = &manifest.files[rank].path;
            out.extend_from_slice(format!("GET {path} HTTP/1.0\r\n{conn}\r\n").as_bytes());
        }
        Req::Search(key) => {
            let q = search_query(key);
            out.extend_from_slice(
                format!("GET /cgi-bin/search?{q} HTTP/1.0\r\n{conn}\r\n").as_bytes(),
            );
        }
        Req::Echo(id) => {
            let body = echo_body(id);
            out.extend_from_slice(
                format!(
                    "POST /cgi-bin/echo HTTP/1.0\r\n{conn}Content-Length: {}\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            );
            out.extend_from_slice(&body);
        }
    }
}

/// Requests per client folded into [`workload_hash`].
const HASHED_REQUESTS: usize = 4096;

/// FNV over the manifest and the head of every client's request stream:
/// two runs with one seed must print one value.
pub fn workload_hash(spec: &Spec, seed: u64, manifest: &Manifest) -> u64 {
    let mut h = FNV_OFFSET;
    for f in &manifest.files {
        h = fnv1a(h, f.path.as_bytes());
        h = fnv1a(h, &f.len.to_le_bytes());
        h = fnv1a(h, &f.fnv.to_le_bytes());
    }
    let mut buf = Vec::new();
    for client in 0..CLIENTS {
        let mut gen = RequestGen::new(spec, seed, client);
        for _ in 0..HASHED_REQUESTS {
            wire(gen.next_req(), manifest, spec.dynamic, &mut buf);
            h = fnv1a(h, &buf);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generated(name: &str, seed: u64) -> (u64, Manifest) {
        let spec = workload(name).unwrap();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-gen-{name}-{seed}-{:?}", std::thread::current().id()));
        let (manifest, _) = Manifest::generate(spec, seed, &dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (workload_hash(spec, seed, &manifest), manifest)
    }

    #[test]
    fn one_seed_one_hash_two_seeds_two_hashes() {
        for name in ["static_small", "dynamic_keepalive"] {
            let (a, _) = generated(name, 7);
            let (b, _) = generated(name, 7);
            let (c, _) = generated(name, 8);
            assert_eq!(a, b, "{name}: same seed must give the same inputs");
            assert_ne!(a, c, "{name}: another seed must give other inputs");
        }
    }

    #[test]
    fn sizes_are_the_same_multiset_for_every_seed() {
        let (_, a) = generated("static_small", 1);
        let (_, b) = generated("static_small", 2);
        for (x, y) in a.files.iter().zip(&b.files) {
            assert_eq!(x.len, y.len);
            assert_ne!(x.path, y.path);
        }
        let total: u64 = a.files.iter().map(|f| f.len).sum();
        // 2,000 log-uniform files of 512 B-16 KiB: about 9 MB, inside the
        // 16 MiB file cache.
        assert!((8_000_000..11_000_000).contains(&total), "{total}");
        let spec = workload("static_small").unwrap();
        assert!(a.files.iter().all(|f| (spec.min_size..=spec.max_size).contains(&f.len)));
    }

    #[test]
    fn manifest_hash_matches_contents() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63dc4c8601ec8c);
        let (_, m) = generated("static_bulk", 3);
        assert_eq!(m.files.len(), 32);
        assert!(m.files.iter().all(|f| f.len == 1_500_000));
    }

    #[test]
    fn zipf_is_skewed_and_uniform_is_not() {
        let mut rng = Rng::new(1);
        let z = Zipf::new(100, 1.0);
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) == 0).count();
        assert!((1_600..2_300).contains(&hits), "{hits}"); // 1/H(100) = 19%
        let u = Zipf::new(100, 0.0);
        let hits = (0..10_000).filter(|_| u.sample(&mut rng) == 0).count();
        assert!((50..160).contains(&hits), "{hits}");
    }

    #[test]
    fn dynamic_mix_is_50_20_30() {
        let spec = workload("dynamic_keepalive").unwrap();
        let mut gen = RequestGen::new(spec, 1, 0);
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            match gen.next_req() {
                Req::Search(_) => counts[0] += 1,
                Req::Echo(_) => counts[1] += 1,
                Req::Get(_) => counts[2] += 1,
            }
        }
        assert!((9_600..10_400).contains(&counts[0]), "{counts:?}");
        assert!((3_700..4_300).contains(&counts[1]), "{counts:?}");
        assert!((5_700..6_300).contains(&counts[2]), "{counts:?}");
    }
}
