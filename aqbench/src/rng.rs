//! Seeded randomness for everything the seed controls besides dataset
//! generation: query order, per-request query draws, and the Poisson
//! arrival schedule. The same seed always yields the same sequences.

use std::time::Duration;

/// SplitMix64: tiny, fast, and well distributed for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the order,
    /// popularity, and schedule draws never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Stream ids, one per seeded decision.
pub const ORDER: u64 = 1;
/// Per-request query draws.
pub const DRAWS: u64 = 3;
/// Poisson inter-arrival gaps.
pub const ARRIVALS: u64 = 4;

/// Closed-loop query order: back-to-back seeded permutations of `0..n`,
/// so every query runs equally often whenever a run ends on a round
/// boundary.
#[derive(Debug, Clone)]
pub struct RoundOrder {
    rng: Rng,
    round: Vec<usize>,
    pos: usize,
}

impl RoundOrder {
    /// The order for `seed` over `n > 0` queries.
    pub fn new(seed: u64, n: usize) -> RoundOrder {
        RoundOrder { rng: Rng::new(seed, ORDER), round: (0..n).collect(), pos: n }
    }

    /// The next query index.
    pub fn next_index(&mut self) -> usize {
        if self.pos == self.round.len() {
            self.round.sort_unstable();
            self.rng.shuffle(&mut self.round);
            self.pos = 0;
        }
        self.pos += 1;
        self.round[self.pos - 1]
    }
}

/// A Zipf(s) popularity law over `n` items: item `r` is drawn with
/// probability proportional to `1/(r+1)^s`, so item 0 is the most
/// popular. The ranking is fixed rather than seeded: the paper queries'
/// costs differ tenfold, so a seeded ranking would change the query mix,
/// and with it every latency, from one seed to the next.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The law over `n` items with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws one item.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.iter().position(|&c| u < c).unwrap_or(self.cdf.len() - 1)
    }
}

/// One scheduled request of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Send time, relative to the start of the run.
    pub at: Duration,
    /// Query index.
    pub query: usize,
}

/// A Poisson arrival schedule at `rate` requests per second covering
/// `span`, each request's query drawn from `zipf`.
pub fn poisson_schedule(seed: u64, rate: f64, span: Duration, zipf: &Zipf) -> Vec<Arrival> {
    let mut gaps = Rng::new(seed, ARRIVALS);
    let mut draws = Rng::new(seed, DRAWS);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Exponential inter-arrival gap; 1 - u keeps ln's argument in (0, 1].
        t += -(1.0 - gaps.unit()).ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Arrival { at: Duration::from_secs_f64(t), query: zipf.draw(&mut draws) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_order(seed: u64, n: usize, rounds: usize) -> Vec<usize> {
        let mut o = RoundOrder::new(seed, n);
        (0..n * rounds).map(|_| o.next_index()).collect()
    }

    #[test]
    fn round_order_is_deterministic_and_balanced() {
        let a = round_order(7, 8, 50);
        assert_eq!(a, round_order(7, 8, 50));
        assert_ne!(a, round_order(8, 8, 50));
        for round in a.chunks(8) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zipf_draws_are_deterministic_and_follow_the_ranking() {
        let z = Zipf::new(8, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed, DRAWS);
            (0..4000).map(|_| z.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        // Item r is drawn about 1/(r+1) as often as item 0 (H_8 ~ 2.718).
        let d = draw(3);
        let share = |q: usize| d.iter().filter(|&&x| x == q).count() as f64 / d.len() as f64;
        for r in 0..8 {
            let want = 1.0 / (r as f64 + 1.0) / 2.717857;
            assert!((share(r) - want).abs() < 0.03, "rank {r}: {} vs {want}", share(r));
        }
    }

    #[test]
    fn poisson_schedule_is_deterministic_with_the_right_rate() {
        let z = Zipf::new(8, 1.0);
        let span = Duration::from_secs(10);
        let a = poisson_schedule(5, 800.0, span, &z);
        assert_eq!(a, poisson_schedule(5, 800.0, span, &z));
        assert_ne!(a, poisson_schedule(6, 800.0, span, &z));
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.last().unwrap().at < span);
        // 8000 expected arrivals; a Poisson count has sd ~ 90.
        assert!((7600..8400).contains(&a.len()), "{}", a.len());
    }
}
