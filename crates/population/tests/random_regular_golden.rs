//! Golden digests of `Topology::random_regular`.
//!
//! Every seeded experiment on a random regular graph (E12, E13, E17,
//! the sweep grid, the fuzzer's `rr4` topology and the repo
//! benchmark) depends on the exact graph a `(n, d, seed)` triple
//! produces. These digests pin that graph — each vertex's sorted
//! neighbour list — and every error the constructor returns, so an
//! optimisation of the generator must reproduce both bit for bit.

use ppfts_population::Topology;

/// FNV-1a over the little-endian bytes of 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn outcome(&mut self, n: usize, d: usize, seed: u64) {
        for w in [n as u64, d as u64, seed] {
            self.word(w);
        }
        match Topology::random_regular(n, d, seed) {
            Ok(t) => {
                self.word(0);
                for v in 0..t.len() {
                    self.word(t.degree(v) as u64);
                    for w in t.neighbors(v) {
                        self.word(w as u64);
                    }
                }
            }
            Err(e) => {
                self.word(1);
                for b in format!("{e:?}").bytes() {
                    self.word(u64::from(b));
                }
            }
        }
    }
}

/// Every size up to 40, where the degree and parity rejections and the
/// small-graph corner cases live, plus the sparse larger sizes the
/// experiments use and their odd neighbours. The largest sizes are pinned
/// only for the degrees that yield graphs there: at `d = 1` every attempt
/// is disconnected and at `d ≥ 5` most seeds exhaust the retry budget, so
/// those cells would cost seconds and pin little beyond the error.
fn sizes(d: usize) -> impl Iterator<Item = usize> {
    let large = [2048, 4096]
        .into_iter()
        .filter(move |_| (2..=4).contains(&d));
    (2..=40)
        .chain([63, 64, 100, 127, 128, 255, 256, 1000, 1024])
        .chain(large)
}

#[test]
fn random_regular_graphs_and_errors_are_pinned() {
    // One digest per degree d = 1..=6 over its sizes × seeds 0..12.
    const GOLDEN: [u64; 6] = [
        16969317414193478629,
        16395501587672821093,
        4364713338818449253,
        10513287932608754243,
        9002136335325976743,
        4956224638055342179,
    ];
    let got: Vec<u64> = (1..=6)
        .map(|d| {
            let mut h = Digest::new();
            for n in sizes(d) {
                for seed in 0..12 {
                    h.outcome(n, d, seed);
                }
            }
            h.0
        })
        .collect();
    assert_eq!(got, GOLDEN, "per-degree digests changed");
}

#[test]
fn e13_topologies_are_pinned() {
    // The rr4 graphs (seed 12) under the committed E13/E17 baselines.
    const GOLDEN: [(usize, u64); 2] = [(1024, 13308056080643205093), (4096, 10609540182728724545)];
    for (n, want) in GOLDEN {
        let mut h = Digest::new();
        h.outcome(n, 4, 12);
        assert_eq!(h.0, want, "rr4 on {n} vertices changed");
    }
}
