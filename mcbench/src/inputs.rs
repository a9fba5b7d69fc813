//! Seeded workload inputs.
//!
//! Everything a run optimizes is generated here from the `--seed`: the
//! paper suites (fixed circuits, seeded order) and the served request
//! stream (seeded circuits over a fixed size mix). The program under test
//! only ever sees the generated circuits.

use mc_rng::Rng;
use xag_circuits::arith::{
    add_ripple, input_word, less_than_unsigned, max_word, multiply_array, output_word,
};
use xag_circuits::control::random_control;
use xag_circuits::epfl::{self, Scale};
use xag_circuits::mpc::mpc_suite;
use xag_circuits::parse::CircuitFormat;
use xag_mc::{OptContext, Pipeline, RewriteParams};
use xag_network::{random_xag, write_bristol, write_verilog, FuzzConfig, Signal, Xag};

/// Size-baseline rounds that turn a generated EPFL row into its "Initial"
/// network, as the Table 1 experiment does.
const TABLE1_BASELINE_ROUNDS: usize = 2;

/// One prepared circuit of a library workload.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Row name.
    pub name: String,
    /// The "Initial" network the timed part starts from.
    pub xag: Xag,
}

/// Reduces `xag` with the generic size baseline, as the Table 1 flow
/// prepares its "Initial" column (a throwaway context: setup must not
/// warm the database the timed part uses).
fn initial(xag: &Xag, baseline_rounds: usize) -> Xag {
    let mut work = xag.cleanup();
    if baseline_rounds > 0 {
        Pipeline::from_params(&RewriteParams {
            max_rounds: baseline_rounds,
            ..RewriteParams::size_baseline()
        })
        .run(&mut work, &mut OptContext::new());
    }
    work.cleanup()
}

/// `suite_1t`: the reduced-scale Table 1 rows (size baseline applied) plus
/// the light Table 2 arithmetic rows (already size-optimized, so no
/// baseline — as `table2` runs them). The seed orders the passes over
/// them ([`crate::library::pass_order`]).
pub fn suite() -> Vec<Circuit> {
    let mut out: Vec<Circuit> = epfl::epfl_suite(Scale::Reduced)
        .into_iter()
        .map(|b| Circuit {
            name: b.name.to_string(),
            xag: initial(&b.xag, TABLE1_BASELINE_ROUNDS),
        })
        .collect();
    out.extend(
        mpc_suite(false)
            .into_iter()
            .filter(|b| !b.heavy)
            .map(|b| Circuit {
                name: b.name.to_string(),
                xag: initial(&b.xag, 0),
            }),
    );
    out
}

/// `large_2t`: the four threading-target rows (log2, div, sqrt from
/// Table 1, the 32×32 multiplier from Table 2), prepared the same way.
pub fn large() -> Vec<Circuit> {
    let mut out: Vec<Circuit> = ["log2", "div", "sqrt"]
        .iter()
        .map(|name| {
            let b = epfl::benchmark(name, Scale::Reduced).expect("Table 1 row exists");
            Circuit {
                name: b.name.to_string(),
                xag: initial(&b.xag, TABLE1_BASELINE_ROUNDS),
            }
        })
        .collect();
    let mult = mpc_suite(false)
        .into_iter()
        .find(|b| b.name == "32x32-bit Multiplier")
        .expect("Table 2 multiplier row exists");
    out.push(Circuit {
        name: mult.name.to_string(),
        xag: initial(&mult.xag, 0),
    });
    out
}

/// Circuit families of the served stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// `random_control`: AND/OR-dominated control logic.
    Control,
    /// Ripple-carry adder with masked inputs.
    Adder,
    /// Array multiplier with masked inputs.
    Multiplier,
    /// Unsigned comparator plus maximum, masked inputs.
    Compare,
    /// `random_xag` with the default configuration.
    Fuzz,
    /// `random_xag` with the `xor_heavy` configuration.
    FuzzXor,
    /// A Table 1/2 row, submitted by the library workloads' traced run.
    Paper,
}

/// The size mix of one epoch of the served stream (60 distinct circuits,
/// well below the default cache capacity of 128): every epoch draws
/// exactly these `(kind, size)` classes, in seeded order and with seeded
/// structure. The size is the family's own knob: gate attempts for the
/// random families, word width for the arithmetic ones. The ladders
/// overlap in cost, so optimization latencies form one continuous range
/// and their median does not sit in a gap between families.
pub const SIZE_MIX: &[(Kind, &[usize])] = &[
    (
        Kind::Control,
        &[60, 90, 120, 160, 200, 260, 330, 420, 540, 700],
    ),
    (Kind::Adder, &[16, 24, 32, 48, 64, 80, 96, 128, 160, 192]),
    (Kind::Multiplier, &[4, 5, 6, 7, 8, 9, 10, 11, 12, 13]),
    (Kind::Compare, &[16, 24, 32, 48, 64, 80, 96, 128, 160, 192]),
    (
        Kind::Fuzz,
        &[200, 340, 480, 620, 760, 900, 1040, 1180, 1320, 1500],
    ),
    (
        Kind::FuzzXor,
        &[200, 340, 480, 620, 760, 900, 1040, 1180, 1320, 1500],
    ),
];

/// A generated circuit of the served stream, in both text formats.
#[derive(Debug, Clone)]
pub struct GenCircuit {
    /// Family.
    pub kind: Kind,
    /// Family size knob (see [`SIZE_MIX`]).
    pub size: usize,
    /// The network.
    pub xag: Xag,
    /// Bristol text.
    pub bristol: String,
    /// Structural Verilog text.
    pub verilog: String,
}

impl GenCircuit {
    /// Wraps a prepared library circuit for submission.
    pub fn from_circuit(c: &Circuit) -> Self {
        let (bristol, verilog) = texts(&c.xag);
        GenCircuit {
            kind: Kind::Paper,
            size: c.xag.num_gates(),
            xag: c.xag.clone(),
            bristol,
            verilog,
        }
    }

    /// The circuit text in `format`.
    pub fn text(&self, format: CircuitFormat) -> &str {
        match format {
            CircuitFormat::Bristol => &self.bristol,
            CircuitFormat::Verilog => &self.verilog,
        }
    }
}

/// One request of the served stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRequest {
    /// The client connection that sends it (each sends its own requests
    /// in order).
    pub client: usize,
    /// Index into [`ServeStream::circuits`].
    pub circuit: usize,
    /// Upload format (the reply comes back in the same format).
    pub format: CircuitFormat,
    /// Sent in the warm phase, when every circuit of the epoch has been
    /// computed: the answer comes from the cache and no optimizer runs
    /// meanwhile. Its latency is a warm sample; every other request's is a
    /// cold one (a coalesced wait waits on a computation).
    pub warm: bool,
    /// Every client waits for the others before sending this request, so
    /// that the clients' requests marked this way leave together.
    pub sync: bool,
}

/// One epoch of the served workload: distinct circuits and every
/// client's request sequence (client 0's first).
#[derive(Debug, Clone)]
pub struct ServeStream {
    /// Distinct circuits, in first-submission order.
    pub circuits: Vec<GenCircuit>,
    /// The requests, each tagged with its client.
    pub requests: Vec<StreamRequest>,
}

/// Closed-loop client connections of `serve_mix`.
pub const CLIENTS: usize = 2;

/// Probability that a resubmission uploads the other text format.
const OTHER_FORMAT_P: f64 = 0.3;

/// The text format a resubmission switches to.
fn other_format(f: CircuitFormat) -> CircuitFormat {
    match f {
        CircuitFormat::Bristol => CircuitFormat::Verilog,
        CircuitFormat::Verilog => CircuitFormat::Bristol,
    }
}

/// Masks each bit of `w` with a seeded complement (free in an XAG, but it
/// makes every seed's arithmetic circuit a distinct network).
fn masked_word(x: &mut Xag, rng: &mut Rng, width: usize) -> Vec<Signal> {
    input_word(x, width)
        .into_iter()
        .map(|s| if rng.gen_bool(0.5) { !s } else { s })
        .collect()
}

/// Candidates drawn for each circuit of a random family; the one of
/// median size is kept.
const CANDIDATES: usize = 9;

/// A cleaned circuit of class `(kind, size)`. The random families' sizes
/// scatter widely from seed to seed for the same knob, and every request's
/// latency follows its size; keeping the median of [`CANDIDATES`] draws
/// makes the seeds' size mixes, and so their figures, agree.
fn draw(kind: Kind, size: usize, rng: &mut Rng) -> Xag {
    match kind {
        Kind::Control | Kind::Fuzz | Kind::FuzzXor => {
            let mut candidates: Vec<Xag> = (0..CANDIDATES)
                .map(|_| generate(kind, size, rng).cleanup())
                .collect();
            candidates.sort_by_key(Xag::num_gates);
            candidates.swap_remove(CANDIDATES / 2)
        }
        _ => generate(kind, size, rng).cleanup(),
    }
}

fn generate(kind: Kind, size: usize, rng: &mut Rng) -> Xag {
    let seed = rng.next_u64();
    match kind {
        Kind::Control => random_control(seed, 24, 12, size),
        Kind::Fuzz | Kind::FuzzXor => {
            let base = if kind == Kind::Fuzz {
                FuzzConfig::default()
            } else {
                FuzzConfig::xor_heavy()
            };
            random_xag(
                &FuzzConfig {
                    inputs: 20,
                    outputs: 12,
                    gates: size,
                    ..base
                },
                seed,
            )
        }
        Kind::Paper => unreachable!("paper rows are prepared, not generated"),
        Kind::Adder | Kind::Multiplier | Kind::Compare => {
            let mut x = Xag::new();
            let a = masked_word(&mut x, rng, size);
            let b = masked_word(&mut x, rng, size);
            match kind {
                Kind::Adder => {
                    let cin = x.input();
                    let (sum, cout) = add_ripple(&mut x, &a, &b, cin);
                    output_word(&mut x, &sum);
                    x.output(cout);
                }
                Kind::Multiplier => {
                    let p = multiply_array(&mut x, &a, &b);
                    output_word(&mut x, &p);
                }
                _ => {
                    let lt = less_than_unsigned(&mut x, &a, &b);
                    x.output(lt);
                    let m = max_word(&mut x, &a, &b);
                    output_word(&mut x, &m);
                }
            }
            x
        }
    }
}

/// Bristol and Verilog texts of `xag`.
pub fn texts(xag: &Xag) -> (String, String) {
    let mut bristol = Vec::new();
    write_bristol(xag, &mut bristol).expect("in-memory write");
    let mut verilog = Vec::new();
    write_verilog(xag, "bench", &mut verilog).expect("in-memory write");
    (
        String::from_utf8(bristol).expect("bristol writer emits ASCII"),
        String::from_utf8(verilog).expect("verilog writer emits ASCII"),
    )
}

/// Builds epoch `epoch` of the served stream for `seed`: the
/// [`SIZE_MIX`] classes in seeded order with seeded structure, dealt
/// alternately to the [`CLIENTS`] closed-loop clients. An epoch has two
/// phases. In the cold phase each client submits its circuits in order,
/// each in a seeded format; one of client 0's circuits is also sent by
/// client 1 at the same moment (both wait for each other first), so it
/// races the original and is coalesced onto its computation. In the warm
/// phase, which the clients enter together, each client resubmits every
/// one of its circuits in seeded order, sometimes in the other text
/// format: half the requests are resubmissions, and they are answered
/// from the cache while no optimizer runs.
pub fn serve_stream(seed: u64, epoch: u64) -> ServeStream {
    let mut rng =
        Rng::seed_from_u64(seed ^ 0x05e7_ea11 ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut classes: Vec<(Kind, usize)> = SIZE_MIX
        .iter()
        .flat_map(|(kind, sizes)| sizes.iter().map(move |&s| (*kind, s)))
        .collect();
    rng.shuffle(&mut classes);
    let circuits: Vec<GenCircuit> = classes
        .into_iter()
        .map(|(kind, size)| {
            let xag = draw(kind, size, &mut rng);
            let (bristol, verilog) = texts(&xag);
            GenCircuit {
                kind,
                size,
                xag,
                bristol,
                verilog,
            }
        })
        .collect();

    let mut cold: Vec<Vec<StreamRequest>> = (0..CLIENTS)
        .map(|client| {
            (client..circuits.len())
                .step_by(CLIENTS)
                .map(|circuit| StreamRequest {
                    client,
                    circuit,
                    format: if rng.gen_bool(0.5) {
                        CircuitFormat::Bristol
                    } else {
                        CircuitFormat::Verilog
                    },
                    warm: false,
                    sync: false,
                })
                .collect()
        })
        .collect();
    let mut warm: Vec<Vec<StreamRequest>> = cold
        .iter()
        .map(|originals| {
            let mut resubmits: Vec<StreamRequest> = originals
                .iter()
                .map(|o| StreamRequest {
                    format: if rng.gen_bool(OTHER_FORMAT_P) {
                        other_format(o.format)
                    } else {
                        o.format
                    },
                    warm: true,
                    ..*o
                })
                .collect();
            rng.shuffle(&mut resubmits);
            resubmits[0].sync = true;
            resubmits
        })
        .collect();
    // The race: client 0's original at position `at`, and the same
    // request from client 1 at the same position of its sequence.
    let at = rng.gen_range(0..cold[0].len());
    cold[0][at].sync = true;
    let duplicate = StreamRequest {
        client: 1,
        ..cold[0][at]
    };
    cold[1].insert(at, duplicate);
    let requests = cold
        .iter_mut()
        .zip(&mut warm)
        .flat_map(|(c, w)| {
            c.append(w);
            std::mem::take(c)
        })
        .collect();
    ServeStream { circuits, requests }
}

#[cfg(test)]
impl ServeStream {
    /// The stream as bytes: every request's format and circuit text, in
    /// order — what the clients put on the wire, minus framing.
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for r in &self.requests {
            out.push(b'0' + r.client as u8);
            out.extend_from_slice(r.format.name().as_bytes());
            out.push(b'\n');
            out.extend_from_slice(self.circuits[r.circuit].text(r.format).as_bytes());
            out.push(0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn size_mix(stream: &ServeStream) -> Vec<(Kind, usize)> {
        let mut mix: Vec<(Kind, usize)> =
            stream.circuits.iter().map(|c| (c.kind, c.size)).collect();
        mix.sort();
        mix
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        assert_eq!(serve_stream(7, 0).bytes(), serve_stream(7, 0).bytes());
        assert_eq!(serve_stream(7, 3).bytes(), serve_stream(7, 3).bytes());
    }

    #[test]
    fn other_seeds_and_epochs_give_other_circuits_with_the_same_size_mix() {
        let a = serve_stream(7, 0);
        for b in [serve_stream(8, 0), serve_stream(7, 1)] {
            assert_eq!(size_mix(&a), size_mix(&b));
            // Same classes, different networks: every random-family
            // circuit and every masked arithmetic one differs.
            let texts = |s: &ServeStream| -> Vec<(Kind, usize, String)> {
                let mut v: Vec<_> = s
                    .circuits
                    .iter()
                    .map(|c| (c.kind, c.size, c.bristol.clone()))
                    .collect();
                v.sort();
                v
            };
            let (ta, tb) = (texts(&a), texts(&b));
            let same = ta.iter().zip(&tb).filter(|(x, y)| x.2 == y.2).count();
            assert!(
                same <= ta.len() / 10,
                "{same} of {} circuits repeat",
                ta.len()
            );
        }
    }

    #[test]
    fn stream_shape() {
        let s = serve_stream(1, 0);
        let n = s.circuits.len();
        assert_eq!(
            n,
            SIZE_MIX.iter().map(|(_, sizes)| sizes.len()).sum::<usize>()
        );
        // No two circuits of one epoch are the same network.
        let mut texts: Vec<&str> = s.circuits.iter().map(|c| c.bristol.as_str()).collect();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), n);
        for c in 0..n {
            let owner = c % CLIENTS;
            let own: Vec<bool> = s
                .requests
                .iter()
                .filter(|r| r.client == owner && r.circuit == c)
                .map(|r| r.warm)
                .collect();
            assert_eq!(
                own,
                [false, true],
                "original in the cold phase, one resubmission in the warm phase"
            );
        }
        for client in 0..CLIENTS {
            let seq: Vec<&StreamRequest> =
                s.requests.iter().filter(|r| r.client == client).collect();
            // The cold phase comes first, the warm phase opens with a sync.
            let first_warm = seq.iter().position(|r| r.warm).unwrap();
            assert!(seq[first_warm..].iter().all(|r| r.warm));
            assert!(seq[first_warm].sync);
            // One sync in the cold phase, at the race.
            let syncs: Vec<usize> = (0..first_warm).filter(|&i| seq[i].sync).collect();
            assert_eq!(syncs.len(), 1);
        }
        // The race: the same circuit and format at the same position of
        // both cold phases.
        let race = |client: usize| {
            let seq: Vec<&StreamRequest> =
                s.requests.iter().filter(|r| r.client == client).collect();
            let at = seq.iter().position(|r| r.sync).unwrap();
            (at, seq[at].circuit, seq[at].format)
        };
        assert_eq!(race(0), race(1));
        assert_eq!(race(0).1 % CLIENTS, 0);
        // Each circuit once in the cold phase, the race twice, and each
        // once in the warm phase.
        assert_eq!(s.requests.len(), 2 * n + 1);
        assert_eq!(s.requests.iter().filter(|r| r.warm).count(), n);
        assert!(s.requests.iter().any(|r| r.warm
            && r.format
                != s.requests
                    .iter()
                    .find(|o| o.circuit == r.circuit && !o.warm)
                    .unwrap()
                    .format));
    }
}
