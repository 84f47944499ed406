//! Property tests: the symbolic χ_netlist against direct simulation.
//!
//! * Random two-level netlists, built by hand through the IR's public
//!   fields: `χ_netlist(X, Y)` must hold exactly when `Y` is what the
//!   drivers compute on `X`. The oracle walks the drivers and looks words
//!   up in the ROM arms; it never touches a BDD.
//! * Random 7-input ISFs synthesized into 4-input cells joined by rails:
//!   TV004 must pass on the clean artifact and, for every one-bit flip of
//!   every stored word, fire exactly when exhaustive simulation of the
//!   mutated netlist contradicts a specified table entry.

use bddcf_bdd::Var;
use bddcf_cascade::{synthesize, Cascade, CascadeOptions};
use bddcf_check::netlist::{
    check_netlist_refinement, netlist_chi, netlist_from_verilog, netlist_to_cascade, Bus, BusKind,
    Driver, NetBit, NetRom, Netlist, TV004_REFINEMENT,
};
use bddcf_core::{Cf, CfLayout};
use bddcf_io::{cascade_to_verilog, parse_verilog};
use bddcf_logic::{Ternary, TruthTable};
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const INPUTS: usize = 4;
const OUTPUTS: usize = 3;

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Appends a bus and its (empty) driver lists.
fn add_bus(net: &mut Netlist, name: String, kind: BusKind, width: usize) -> usize {
    net.buses.push(Bus {
        name,
        kind,
        width,
        line: 0,
    });
    net.drivers.push(vec![Vec::new(); width]);
    net.buses.len() - 1
}

/// Adds a ROM addressed by copies of `addr` (LSB first) storing `words`;
/// returns its data bus. Some addresses whose word equals the default
/// (or zero, when there is none) have no arm, and the arms come in
/// shuffled order.
fn add_rom(
    net: &mut Netlist,
    addr: &[NetBit],
    words: &[u64],
    width: usize,
    rng: &mut StdRng,
) -> usize {
    let r = net.roms.len();
    let addr_bus = add_bus(net, format!("addr{r}"), BusKind::Wire, addr.len());
    for (bit, &src) in addr.iter().enumerate() {
        net.drivers[addr_bus][bit].push(Driver::Copy { line: 0, src });
    }
    let data_bus = add_bus(net, format!("data{r}"), BusKind::Reg, width);
    let default = rng
        .gen::<bool>()
        .then(|| (0, words[rng.gen_range(0..words.len())]));
    let fill = default.map_or(0, |(_, word)| word);
    let mut arms: Vec<(usize, u64, u64)> = (0..words.len() as u64)
        .filter(|&a| words[a as usize] != fill || rng.gen::<bool>())
        .map(|a| (0, a, words[a as usize]))
        .collect();
    shuffle(&mut arms, rng);
    net.roms.push(NetRom {
        line: 0,
        target: data_bus,
        addr: addr_bus,
        arms,
        default,
    });
    for bit in 0..width {
        net.drivers[data_bus][bit].push(Driver::Rom { rom: r, bit });
    }
    data_bus
}

fn random_words(arity: usize, width: usize, rng: &mut StdRng) -> Vec<u64> {
    (0..1 << arity)
        .map(|_| rng.gen::<u64>() & ((1 << width) - 1))
        .collect()
}

/// Two first-level ROMs over the inputs (one with a constant data bit)
/// and a second-level ROM whose address mixes their data bits with input
/// bits in arbitrary order, one source feeding two address bits.
fn two_level_netlist(rng: &mut StdRng) -> Netlist {
    let mut net = Netlist {
        name: "m".into(),
        buses: Vec::new(),
        roms: Vec::new(),
        drivers: Vec::new(),
    };
    let x = add_bus(&mut net, "x".into(), BusKind::Input, INPUTS);
    let y = add_bus(&mut net, "y".into(), BusKind::Output, OUTPUTS);
    let inputs: Vec<NetBit> = (0..INPUTS).map(|bit| NetBit { bus: x, bit }).collect();

    let mut first = Vec::new();
    let mut constant = None;
    for r in 0..2 {
        let arity = rng.gen_range(1..=3);
        let addr: Vec<NetBit> = (0..arity)
            .map(|_| inputs[rng.gen_range(0..INPUTS)])
            .collect();
        let width = rng.gen_range(1..=3);
        let mut words = random_words(arity, width, rng);
        let fixed = (r == 0).then(|| rng.gen_range(0..width));
        if let Some(bit) = fixed {
            let value = u64::from(rng.gen::<bool>()) << bit;
            for word in &mut words {
                *word = *word & !(1 << bit) | value;
            }
        }
        let data = add_rom(&mut net, &addr, &words, width, rng);
        first.extend((0..width).map(|bit| NetBit { bus: data, bit }));
        if let Some(bit) = fixed {
            constant = Some(NetBit { bus: data, bit });
        }
    }

    let pool: Vec<NetBit> = first.iter().chain(&inputs).copied().collect();
    let arity = rng.gen_range(4..=5);
    let mut addr: Vec<NetBit> = (0..arity)
        .map(|_| pool[rng.gen_range(0..pool.len())])
        .collect();
    addr[0] = constant.expect("the first ROM has a constant bit");
    addr[1] = first[rng.gen_range(0..first.len())];
    addr[2] = inputs[rng.gen_range(0..INPUTS)];
    addr[3] = addr[rng.gen_range(0..3)];
    shuffle(&mut addr, rng);
    let width = rng.gen_range(1..=3);
    let words = random_words(arity, width, rng);
    let second = add_rom(&mut net, &addr, &words, width, rng);

    let data: Vec<NetBit> = (0..width)
        .map(|bit| NetBit { bus: second, bit })
        .chain(first)
        .collect();
    for j in 0..OUTPUTS {
        let src = if j == 0 {
            data[0]
        } else {
            data[rng.gen_range(0..data.len())]
        };
        net.drivers[y][j].push(Driver::Copy { line: 0, src });
    }
    net
}

/// The value of `bit` on input assignment `x`, by walking the drivers.
fn simulate(net: &Netlist, x: usize, bit: NetBit) -> bool {
    if net.buses[bit.bus].kind == BusKind::Input {
        return x >> bit.bit & 1 == 1;
    }
    match net.drivers[bit.bus][bit.bit][0] {
        Driver::Copy { src, .. } => simulate(net, x, src),
        Driver::Rom { rom, bit } => {
            let rom = &net.roms[rom];
            let address = (0..net.buses[rom.addr].width)
                .filter(|&k| {
                    simulate(
                        net,
                        x,
                        NetBit {
                            bus: rom.addr,
                            bit: k,
                        },
                    )
                })
                .map(|k| 1u64 << k)
                .sum::<u64>();
            let word = match rom.arms.iter().find(|arm| arm.1 == address) {
                Some(arm) => arm.2,
                None => rom.default.map_or(0, |(_, word)| word),
            };
            word >> bit & 1 == 1
        }
    }
}

const ISF_INPUTS: usize = 7;
const ISF_OUTPUTS: usize = 3;

/// A random 7-input, 3-output ISF (85% don't cares) reduced by Alg. 3.3
/// and synthesized into 4-input cells, with at least two live cells
/// joined by rails; the first such draw from the seed's stream.
fn rail_fed_cascade(seed: u64) -> (TruthTable, Cf, Cascade) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..64 {
        let mut table = TruthTable::new(ISF_INPUTS, ISF_OUTPUTS);
        for r in 0..1 << ISF_INPUTS {
            for j in 0..ISF_OUTPUTS {
                let v = match rng.gen_range(0..20) {
                    0..=16 => Ternary::DontCare,
                    17 => Ternary::Zero,
                    _ => Ternary::One,
                };
                table.set(r, j, v);
            }
        }
        let mut cf = Cf::from_truth_table(&table);
        cf.reduce_alg33_default();
        let options = CascadeOptions {
            max_cell_inputs: 4,
            max_cell_outputs: 4,
            ..CascadeOptions::default()
        };
        let Ok(cascade) = synthesize(&mut cf, &options) else {
            continue;
        };
        let live = cascade.without_noop_cells();
        if live.num_cells() >= 2 && live.cells().iter().any(|c| c.rails_in() > 0) {
            return (table, cf, cascade);
        }
    }
    panic!("no rail-fed cascade in 64 draws from seed {seed}");
}

/// True when the netlist computes, on some input, a value the table
/// specifies otherwise.
fn contradicts(net: &Netlist, table: &TruthTable) -> Result<bool, TestCaseError> {
    let cascade = netlist_to_cascade(net, "prop.v")
        .map_err(|r| TestCaseError(format!("a word flip keeps the topology: {r}")))?;
    Ok((0..1usize << ISF_INPUTS).any(|r| {
        let input: Vec<bool> = (0..ISF_INPUTS).map(|i| r >> i & 1 == 1).collect();
        let word = cascade.eval(&input);
        (0..ISF_OUTPUTS).any(|j| match table.get(r, j) {
            Ternary::DontCare => false,
            care => (word >> j & 1 == 1) != (care == Ternary::One),
        })
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chi_of_a_two_level_netlist_matches_simulation(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = two_level_netlist(&mut rng);
        let layout = CfLayout::new(INPUTS, OUTPUTS);
        let mut mgr = layout.new_manager();
        let mut order: Vec<Var> = (0..layout.num_vars() as u32).map(Var).collect();
        shuffle(&mut order, &mut rng);
        mgr.set_order(&order);
        let chi = netlist_chi(&net, &mut mgr, &layout, "prop")
            .map_err(|r| TestCaseError(format!("a well-formed netlist: {r}")))?;
        let y = net.output_bus().expect("one output bus");
        for x in 0..1usize << INPUTS {
            let simulated: usize = (0..OUTPUTS)
                .filter(|&j| simulate(&net, x, NetBit { bus: y, bit: j }))
                .map(|j| 1 << j)
                .sum();
            for word in 0..1usize << OUTPUTS {
                let assignment: Vec<bool> = (0..INPUTS)
                    .map(|i| x >> i & 1 == 1)
                    .chain((0..OUTPUTS).map(|j| word >> j & 1 == 1))
                    .collect();
                prop_assert_eq!(
                    mgr.eval(chi, &assignment),
                    word == simulated,
                    "X = {:#b}, Y = {:#b}, simulated Y = {:#b}",
                    x,
                    word,
                    simulated
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tv004_fires_exactly_on_word_flips_that_simulation_catches(seed in any::<u64>()) {
        let (table, mut cf, cascade) = rail_fed_cascade(seed);
        let text = cascade_to_verilog(&cascade, "m").expect("`m` is a valid module name");
        let parsed = parse_verilog(&text)
            .map_err(|e| TestCaseError(format!("emitted Verilog must parse: {e}")))?;
        let (net, lowering) = netlist_from_verilog(&parsed, "prop.v");
        prop_assert!(lowering.is_clean(), "{lowering}");
        let clean = check_netlist_refinement(&net, &mut cf, "prop.v");
        prop_assert!(clean.is_clean(), "{clean}");
        prop_assert!(!contradicts(&net, &table)?, "the clean artifact meets the table");

        let (mut fired, mut silent) = (0, 0);
        for rom in 0..net.roms.len() {
            let width = net.buses[net.roms[rom].target].width;
            for arm in 0..net.roms[rom].arms.len() {
                for bit in 0..width {
                    let mut mutant = net.clone();
                    mutant.roms[rom].arms[arm].2 ^= 1 << bit;
                    let report = check_netlist_refinement(&mutant, &mut cf, "prop.v");
                    let caught = contradicts(&mutant, &table)?;
                    prop_assert_eq!(
                        report.has(TV004_REFINEMENT),
                        caught,
                        "ROM {}, arm {}, bit {}: {}",
                        rom,
                        arm,
                        bit,
                        report
                    );
                    if caught { fired += 1 } else { silent += 1 }
                }
            }
        }
        prop_assert!(fired > 0 && silent > 0, "{} flips fired, {} did not", fired, silent);
    }
}
