//! Layer 5, part 1: a bit-level netlist IR for emitted artifacts.
//!
//! Layer 5 validates the *artifacts* the pipeline writes (Verilog
//! modules, cascade text files), not the in-memory objects they came from.
//! Both artifact formats lower into the IR defined here — buses of named
//! bits, copy drivers, and combinational ROM cells — and every analysis
//! then runs on the IR:
//!
//! * **structural lints** ([`lint_netlist`]): multiply-driven and undriven
//!   bits, dead wires, combinational loops, `case` completeness and
//!   overlap, vacuous ROM address bits;
//! * **reconstruction** ([`netlist_to_cascade`]): rebuilding a
//!   [`Cascade`] from the wiring pattern, which powers the byte-faithful
//!   emit → parse → re-emit round-trip check;
//! * **translation validation** ([`netlist_chi`],
//!   [`check_netlist_refinement`]): re-deriving the characteristic
//!   function χ_netlist of the artifact *symbolically* — no simulation —
//!   and proving `χ_netlist ⇒ χ_spec` with the PR 1 refinement oracle
//!   ([`Cf::original_chi`]).
//!
//! χ_netlist is composed in one pass per ROM. The ROM's address vector
//! (the BDDs of its address bits) is cofactored on its topmost variable;
//! each distinct cofactor vector is memoized as a *state*, and an
//! all-constant vector is an address that selects a stored word. Every
//! data bit then gets one `mk` per state, so a ROM costs states × data
//! bits `mk` calls, where expanding each bit on its own over the address
//! BDDs costs up to 2^w − 1 `ite` calls per bit of a w-bit address.
//! Stored words are `u64`: lowering reports a data bus wider than 64 bits
//! as NL009, and the symbolic passes refuse one as TV003.
//!
//! Findings carry a machine-readable catalog id (`NL…` for netlist
//! structure, `TV…` for translation validation) plus the artifact file
//! name and 1-based line, so CI can gate on them.

use bddcf_bdd::hasher::{FastMap, FxLikeHasher};
use bddcf_bdd::{BddManager, NodeId, FALSE, TRUE};
use bddcf_cascade::{Cascade, LutCell};
use bddcf_core::{Cf, CfLayout};
use bddcf_io::verilog_parse::{BitRef, Expr, PortDir, VerilogItem, VerilogModule};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;

/// NL001: a bit has more than one driver.
pub const NL001_MULTIPLE_DRIVERS: &str = "NL001";
/// NL002: a read (or output-port) bit has no driver.
pub const NL002_UNDRIVEN: &str = "NL002";
/// NL003: an internal bus is never read.
pub const NL003_UNUSED_WIRE: &str = "NL003";
/// NL004: the combinational logic contains a cycle.
pub const NL004_COMB_LOOP: &str = "NL004";
/// NL005: a ROM `case` does not enumerate its full address space.
pub const NL005_CASE_INCOMPLETE: &str = "NL005";
/// NL006: a ROM `case` matches the same address twice.
pub const NL006_CASE_OVERLAP: &str = "NL006";
/// NL007: a ROM address bit never affects the stored word.
pub const NL007_UNUSED_ADDRESS_BIT: &str = "NL007";
/// NL009: a structural defect (unknown bus, width mismatch, bad index).
pub const NL009_STRUCTURE: &str = "NL009";
/// TV001: the artifact does not parse (or re-emission failed).
pub const TV001_PARSE: &str = "TV001";
/// TV002: emit → parse → re-emit is not byte-faithful.
pub const TV002_ROUNDTRIP: &str = "TV002";
/// TV003: the netlist does not reconstruct to an equivalent cascade.
pub const TV003_RECONSTRUCTION: &str = "TV003";
/// TV004: the reconstructed χ does not refine the specification χ.
pub const TV004_REFINEMENT: &str = "TV004";

/// One artifact-lint finding: catalog id + file + 1-based line (0 = the
/// whole artifact) + description. This is the machine-readable unit
/// `bddcf check` prints one per line.
#[derive(Clone, Debug)]
pub struct LintFinding {
    /// Artifact (or synthetic stem) the finding is about.
    pub file: String,
    /// 1-based line within the artifact; 0 for whole-artifact findings.
    pub line: usize,
    /// Catalog id, e.g. [`NL001_MULTIPLE_DRIVERS`].
    pub id: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.id, self.message
        )
    }
}

/// A (possibly empty) list of [`LintFinding`]s.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    findings: Vec<LintFinding>,
}

impl LintReport {
    /// An empty (clean) report.
    pub fn new() -> Self {
        LintReport::default()
    }

    /// Records a finding.
    pub fn push(&mut self, file: &str, line: usize, id: &'static str, message: impl Into<String>) {
        self.findings.push(LintFinding {
            file: file.to_owned(),
            line,
            id,
            message: message.into(),
        });
    }

    /// Absorbs another report.
    pub fn extend(&mut self, other: LintReport) {
        self.findings.extend(other.findings);
    }

    /// True when no finding was recorded.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// All findings, in discovery order.
    pub fn findings(&self) -> &[LintFinding] {
        &self.findings
    }

    /// True when some finding carries catalog id `id`.
    pub fn has(&self, id: &str) -> bool {
        self.findings.iter().any(|f| f.id == id)
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            return writeln!(f, "clean: no findings");
        }
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        write!(f, "{} finding(s)", self.findings.len())
    }
}

// ---------------------------------------------------------------------
// The IR
// ---------------------------------------------------------------------

/// What a bus is, from the artifact's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusKind {
    /// A module input port (driven by the environment).
    Input,
    /// A module output port (read by the environment).
    Output,
    /// An internal wire.
    Wire,
    /// An internal reg (ROM targets).
    Reg,
}

/// One named bus of `width` bits.
#[derive(Clone, Debug)]
pub struct Bus {
    /// Bus name as written in the artifact.
    pub name: String,
    /// Role of the bus.
    pub kind: BusKind,
    /// Width in bits.
    pub width: usize,
    /// 1-based declaration line (0 for synthetic netlists).
    pub line: usize,
}

/// One bit of one bus (`bus` indexes [`Netlist::buses`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NetBit {
    /// Index into [`Netlist::buses`].
    pub bus: usize,
    /// Bit position (LSB = 0).
    pub bit: usize,
}

/// What drives a bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// The bit copies another bit (wire initializer / `assign`).
    Copy {
        /// 1-based source line of the connection.
        line: usize,
        /// The copied bit.
        src: NetBit,
    },
    /// Bit `bit` of ROM `rom`'s data word.
    Rom {
        /// Index into [`Netlist::roms`].
        rom: usize,
        /// Word bit position.
        bit: usize,
    },
}

/// A combinational ROM: a full-word lookup of `target` by `addr`.
#[derive(Clone, Debug)]
pub struct NetRom {
    /// 1-based line of the ROM block (0 for synthetic netlists).
    pub line: usize,
    /// Bus index of the data word written by every arm.
    pub target: usize,
    /// Bus index of the address scrutinee.
    pub addr: usize,
    /// Explicit arms: `(line, address, word)` in source order.
    pub arms: Vec<(usize, u64, u64)>,
    /// Default word, when present.
    pub default: Option<(usize, u64)>,
}

/// A lowered artifact: buses, ROMs, and per-bit driver lists.
#[derive(Clone, Debug)]
pub struct Netlist {
    /// Module / artifact name.
    pub name: String,
    /// All buses.
    pub buses: Vec<Bus>,
    /// All ROM cells.
    pub roms: Vec<NetRom>,
    /// `drivers[bus][bit]` — every driver recorded for that bit. More
    /// than one is NL001; zero on a read bit is NL002.
    pub drivers: Vec<Vec<Vec<Driver>>>,
}

impl Netlist {
    /// Index of the bus called `name`.
    pub fn bus(&self, name: &str) -> Option<usize> {
        self.buses.iter().position(|b| b.name == name)
    }

    /// The single [`BusKind::Input`] bus, when there is exactly one.
    pub fn input_bus(&self) -> Option<usize> {
        exactly_one(&self.buses, BusKind::Input)
    }

    /// The single [`BusKind::Output`] bus, when there is exactly one.
    pub fn output_bus(&self) -> Option<usize> {
        exactly_one(&self.buses, BusKind::Output)
    }

    fn bit_name(&self, bit: NetBit) -> String {
        format!("{}[{}]", self.buses[bit.bus].name, bit.bit)
    }
}

fn exactly_one(buses: &[Bus], kind: BusKind) -> Option<usize> {
    let mut it = buses.iter().enumerate().filter(|(_, b)| b.kind == kind);
    match (it.next(), it.next()) {
        (Some((i, _)), None) => Some(i),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Lowering: Verilog AST → netlist
// ---------------------------------------------------------------------

/// Lowers a parsed Verilog module into the IR. Structural defects
/// (unknown buses, width mismatches, out-of-range indices) become NL009
/// findings; lowering continues past them so one defect does not hide
/// the rest.
pub fn netlist_from_verilog(module: &VerilogModule, file: &str) -> (Netlist, LintReport) {
    let mut report = LintReport::new();
    let mut buses: Vec<Bus> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();

    let mut declare = |name: &str, kind, width, line, report: &mut LintReport| {
        if index.contains_key(name) {
            report.push(
                file,
                line,
                NL009_STRUCTURE,
                format!("duplicate declaration of bus `{name}`"),
            );
            return;
        }
        index.insert(name.to_owned(), buses.len());
        buses.push(Bus {
            name: name.to_owned(),
            kind,
            width,
            line,
        });
    };

    // Pass 1: declare every bus so forward references resolve.
    for port in &module.ports {
        let kind = match port.dir {
            PortDir::Input => BusKind::Input,
            PortDir::Output => BusKind::Output,
        };
        declare(&port.name, kind, port.width, port.line, &mut report);
    }
    for item in &module.items {
        match item {
            VerilogItem::Wire {
                line, name, width, ..
            } => declare(name, BusKind::Wire, *width, *line, &mut report),
            VerilogItem::Reg { line, name, width } => {
                declare(name, BusKind::Reg, *width, *line, &mut report)
            }
            _ => {}
        }
    }

    let mut net = Netlist {
        name: module.name.clone(),
        buses,
        roms: Vec::new(),
        drivers: Vec::new(),
    };
    net.drivers = net
        .buses
        .iter()
        .map(|b| vec![Vec::new(); b.width])
        .collect();

    let resolve = |net: &Netlist, r: &BitRef, line: usize, report: &mut LintReport| {
        let Some(bus) = net.bus(&r.bus) else {
            report.push(
                file,
                line,
                NL009_STRUCTURE,
                format!("reference to undeclared bus `{}`", r.bus),
            );
            return None;
        };
        if r.index >= net.buses[bus].width {
            report.push(
                file,
                line,
                NL009_STRUCTURE,
                format!(
                    "bit index {} out of range for `{}` (width {})",
                    r.index, r.bus, net.buses[bus].width
                ),
            );
            return None;
        }
        Some(NetBit { bus, bit: r.index })
    };

    // Pass 2: connect drivers.
    for item in &module.items {
        match item {
            VerilogItem::Wire {
                line,
                name,
                width,
                init: Some(init),
            } => {
                let Some(bus) = net.bus(name) else { continue };
                let srcs = lower_expr(&net, init, *width, *line, file, &resolve, &mut report);
                for (bit, src) in srcs.into_iter().enumerate() {
                    if let Some(src) = src {
                        net.drivers[bus][bit].push(Driver::Copy { line: *line, src });
                    }
                }
            }
            VerilogItem::Assign {
                line,
                target,
                value,
            } => {
                let Some(tgt) = resolve(&net, target, *line, &mut report) else {
                    continue;
                };
                if net.buses[tgt.bus].kind == BusKind::Input {
                    report.push(
                        file,
                        *line,
                        NL009_STRUCTURE,
                        format!("assignment drives input port `{}`", net.buses[tgt.bus].name),
                    );
                    continue;
                }
                let srcs = lower_expr(&net, value, 1, *line, file, &resolve, &mut report);
                if let Some(Some(src)) = srcs.first() {
                    net.drivers[tgt.bus][tgt.bit].push(Driver::Copy {
                        line: *line,
                        src: *src,
                    });
                }
            }
            VerilogItem::Rom(rom) => {
                let Some(target) = net.bus(&rom.target) else {
                    report.push(
                        file,
                        rom.line,
                        NL009_STRUCTURE,
                        format!("ROM writes undeclared bus `{}`", rom.target),
                    );
                    continue;
                };
                let Some(addr) = net.bus(&rom.addr) else {
                    report.push(
                        file,
                        rom.line,
                        NL009_STRUCTURE,
                        format!("ROM scrutinizes undeclared bus `{}`", rom.addr),
                    );
                    continue;
                };
                if net.buses[target].kind != BusKind::Reg {
                    report.push(
                        file,
                        rom.line,
                        NL009_STRUCTURE,
                        format!("ROM target `{}` is not a reg", rom.target),
                    );
                }
                let (aw, ww) = (net.buses[addr].width, net.buses[target].width);
                if ww > 64 {
                    report.push(
                        file,
                        rom.line,
                        NL009_STRUCTURE,
                        format!(
                            "`{}` stores {ww}-bit words; words are at most 64 bits",
                            rom.target
                        ),
                    );
                }
                let mut arms = Vec::with_capacity(rom.arms.len());
                for arm in &rom.arms {
                    if arm.addr_width != aw {
                        report.push(
                            file,
                            arm.line,
                            NL009_STRUCTURE,
                            format!(
                                "case label width {} does not match `{}` (width {aw})",
                                arm.addr_width, rom.addr
                            ),
                        );
                    }
                    if arm.word_width != ww {
                        report.push(
                            file,
                            arm.line,
                            NL009_STRUCTURE,
                            format!(
                                "data word width {} does not match `{}` (width {ww})",
                                arm.word_width, rom.target
                            ),
                        );
                    }
                    if aw < 64 && arm.address >> aw != 0 {
                        report.push(
                            file,
                            arm.line,
                            NL009_STRUCTURE,
                            format!(
                                "case label {} exceeds the {aw}-bit address space",
                                arm.address
                            ),
                        );
                    }
                    arms.push((arm.line, arm.address, arm.word));
                }
                let rom_idx = net.roms.len();
                net.roms.push(NetRom {
                    line: rom.line,
                    target,
                    addr,
                    arms,
                    default: rom.default,
                });
                for bit in 0..ww {
                    net.drivers[target][bit].push(Driver::Rom { rom: rom_idx, bit });
                }
            }
            _ => {}
        }
    }
    (net, report)
}

/// Lowers an initializer/assign RHS into one source bit per target bit
/// (LSB first). `None` marks bits whose source failed to resolve.
#[allow(clippy::too_many_arguments)]
fn lower_expr(
    net: &Netlist,
    expr: &Expr,
    width: usize,
    line: usize,
    file: &str,
    resolve: &dyn Fn(&Netlist, &BitRef, usize, &mut LintReport) -> Option<NetBit>,
    report: &mut LintReport,
) -> Vec<Option<NetBit>> {
    match expr {
        Expr::Bit(r) => {
            if width != 1 {
                report.push(
                    file,
                    line,
                    NL009_STRUCTURE,
                    format!("single-bit value drives a {width}-bit target"),
                );
                return vec![None; width];
            }
            vec![resolve(net, r, line, report)]
        }
        Expr::Slice { bus, hi, lo } => {
            if hi - lo + 1 != width {
                report.push(
                    file,
                    line,
                    NL009_STRUCTURE,
                    format!(
                        "slice `{bus}[{hi}:{lo}]` is {} bits wide but the target has {width}",
                        hi - lo + 1
                    ),
                );
                return vec![None; width];
            }
            (0..width)
                .map(|k| {
                    resolve(
                        net,
                        &BitRef {
                            bus: bus.clone(),
                            index: lo + k,
                        },
                        line,
                        report,
                    )
                })
                .collect()
        }
        Expr::Concat(parts) => {
            if parts.len() != width {
                report.push(
                    file,
                    line,
                    NL009_STRUCTURE,
                    format!(
                        "concatenation has {} bits but the target has {width}",
                        parts.len()
                    ),
                );
                return vec![None; width];
            }
            // Concatenations are written MSB first: part 0 drives the top bit.
            (0..width)
                .map(|bit| resolve(net, &parts[width - 1 - bit], line, report))
                .collect()
        }
    }
}

// ---------------------------------------------------------------------
// Lowering: Cascade → netlist (the cascade-text artifact path)
// ---------------------------------------------------------------------

/// Lowers an in-memory [`Cascade`] into the IR with the exact bus
/// topology `emit_verilog` writes (`x`/`y` ports, `addr`/`data`/`rail`
/// per cell). This is how `.cas` artifacts reach the shared analyses:
/// parse → [`Cascade`] → netlist. All lines are 0 (the topology is
/// synthetic).
pub fn cascade_to_netlist(cascade: &Cascade, name: &str) -> Netlist {
    let mut buses = vec![
        Bus {
            name: "x".into(),
            kind: BusKind::Input,
            width: cascade.num_inputs().max(1),
            line: 0,
        },
        Bus {
            name: "y".into(),
            kind: BusKind::Output,
            width: cascade.num_outputs().max(1),
            line: 0,
        },
    ];
    let mut roms = Vec::new();
    let mut connections: Vec<(NetBit, Driver)> = Vec::new();
    let mut rail_bus_of_prev: Option<usize> = None;

    // Mirror the emitter: hardware no-op cells are not part of the
    // artifact topology, and live cells are numbered consecutively.
    for (i, cell) in cascade.cells().iter().filter(|c| !c.is_noop()).enumerate() {
        let abits = cell.num_inputs();
        let wbits = cell.num_outputs();
        let addr_bus = buses.len();
        buses.push(Bus {
            name: format!("addr{i}"),
            kind: BusKind::Wire,
            width: abits.max(1),
            line: 0,
        });
        let data_bus = buses.len();
        buses.push(Bus {
            name: format!("data{i}"),
            kind: BusKind::Reg,
            width: wbits.max(1),
            line: 0,
        });
        for t in 0..cell.rails_in() {
            let prev = rail_bus_of_prev.expect("invariant: from_cells validated the rail chain");
            connections.push((
                NetBit {
                    bus: addr_bus,
                    bit: t,
                },
                Driver::Copy {
                    line: 0,
                    src: NetBit { bus: prev, bit: t },
                },
            ));
        }
        for (k, &input_id) in cell.input_ids().iter().enumerate() {
            connections.push((
                NetBit {
                    bus: addr_bus,
                    bit: cell.rails_in() + k,
                },
                Driver::Copy {
                    line: 0,
                    src: NetBit {
                        bus: 0,
                        bit: input_id,
                    },
                },
            ));
        }
        let rom_idx = roms.len();
        let mut arms = Vec::with_capacity(1 << abits);
        for address in 0..1u64 << abits {
            let rail_in = if cell.rails_in() == 0 {
                0
            } else {
                address & ((1u64 << cell.rails_in()) - 1)
            };
            let inputs: Vec<bool> = (0..cell.input_ids().len())
                .map(|k| address >> (cell.rails_in() + k) & 1 == 1)
                .collect();
            let (outs, rail_out) = cell.lookup(rail_in, &inputs);
            arms.push((0, address, outs | (rail_out << cell.output_ids().len())));
        }
        roms.push(NetRom {
            line: 0,
            target: data_bus,
            addr: addr_bus,
            arms,
            default: Some((0, 0)),
        });
        for bit in 0..wbits {
            connections.push((
                NetBit { bus: data_bus, bit },
                Driver::Rom { rom: rom_idx, bit },
            ));
        }
        for (k, &output_id) in cell.output_ids().iter().enumerate() {
            connections.push((
                NetBit {
                    bus: 1,
                    bit: output_id,
                },
                Driver::Copy {
                    line: 0,
                    src: NetBit {
                        bus: data_bus,
                        bit: k,
                    },
                },
            ));
        }
        if cell.rails_out() > 0 {
            let rail_bus = buses.len();
            buses.push(Bus {
                name: format!("rail{i}"),
                kind: BusKind::Wire,
                width: cell.rails_out(),
                line: 0,
            });
            for t in 0..cell.rails_out() {
                connections.push((
                    NetBit {
                        bus: rail_bus,
                        bit: t,
                    },
                    Driver::Copy {
                        line: 0,
                        src: NetBit {
                            bus: data_bus,
                            bit: cell.output_ids().len() + t,
                        },
                    },
                ));
            }
            rail_bus_of_prev = Some(rail_bus);
        } else {
            rail_bus_of_prev = None;
        }
    }

    let mut net = Netlist {
        name: name.to_owned(),
        buses,
        roms,
        drivers: Vec::new(),
    };
    net.drivers = net
        .buses
        .iter()
        .map(|b| vec![Vec::new(); b.width])
        .collect();
    for (bit, driver) in connections {
        net.drivers[bit.bus][bit.bit].push(driver);
    }
    net
}

// ---------------------------------------------------------------------
// Structural lints (NL001–NL007)
// ---------------------------------------------------------------------

/// ROM address spaces wider than this are not enumerated (the paper's
/// cells stay ≤ 12–14 address bits; anything bigger is itself suspect).
const MAX_ENUM_ADDR_BITS: usize = 20;

/// Runs the structural lint battery over a lowered netlist.
pub fn lint_netlist(net: &Netlist, file: &str) -> LintReport {
    lint_netlist_with_spec(net, file, &[])
}

/// [`lint_netlist`] with specification knowledge: `spec_vacuous_inputs`
/// lists primary input indices the specification is known to ignore.
/// A cell must still consume its layout level even when χ no longer
/// depends on it (e.g. the padding inputs of widened benchmarks), so an
/// NL007 finding whose address bit traces back — through copy chains —
/// to such an input is expected hardware, not a translation defect, and
/// is suppressed.
pub fn lint_netlist_with_spec(
    net: &Netlist,
    file: &str,
    spec_vacuous_inputs: &[usize],
) -> LintReport {
    let mut report = LintReport::new();

    // Which bits does anything read?
    let mut read = vec![false; net.buses.len()];
    for per_bus in &net.drivers {
        for drivers in per_bus {
            for d in drivers {
                if let Driver::Copy { src, .. } = d {
                    read[src.bus] = true;
                }
            }
        }
    }
    for rom in &net.roms {
        read[rom.addr] = true;
    }

    for (b, bus) in net.buses.iter().enumerate() {
        for bit in 0..bus.width {
            let drivers = &net.drivers[b][bit];
            if drivers.len() > 1 {
                let line = driver_line(net, &drivers[1]);
                report.push(
                    file,
                    line,
                    NL001_MULTIPLE_DRIVERS,
                    format!(
                        "`{}[{bit}]` has {} drivers (first at line {})",
                        bus.name,
                        drivers.len(),
                        driver_line(net, &drivers[0])
                    ),
                );
            }
            if drivers.is_empty()
                && bus.kind != BusKind::Input
                && (bus.kind == BusKind::Output || read[b])
            {
                report.push(
                    file,
                    bus.line,
                    NL002_UNDRIVEN,
                    format!("`{}[{bit}]` is read but has no driver", bus.name),
                );
            }
        }
        if matches!(bus.kind, BusKind::Wire | BusKind::Reg) && !read[b] {
            report.push(
                file,
                bus.line,
                NL003_UNUSED_WIRE,
                format!("`{}` is never read", bus.name),
            );
        }
    }

    lint_loops(net, file, &mut report);
    for rom in &net.roms {
        lint_rom(net, rom, file, spec_vacuous_inputs, &mut report);
    }
    report
}

fn driver_line(net: &Netlist, d: &Driver) -> usize {
    match d {
        Driver::Copy { line, .. } => *line,
        Driver::Rom { rom, .. } => net.roms[*rom].line,
    }
}

/// NL004: depth-first search over the bit dependency graph. A ROM-driven
/// bit depends on every bit of its address bus.
fn lint_loops(net: &Netlist, file: &str, report: &mut LintReport) {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks: HashMap<NetBit, Mark> = HashMap::new();
    let mut flagged = false;

    // Iterative DFS with an explicit stack; Enter/Exit frames give the
    // grey (on-path) window that detects back edges.
    enum Frame {
        Enter(NetBit),
        Exit(NetBit),
    }
    for b in 0..net.buses.len() {
        for bit in 0..net.buses[b].width {
            let start = NetBit { bus: b, bit };
            if marks.get(&start).copied().unwrap_or(Mark::White) != Mark::White {
                continue;
            }
            let mut stack = vec![Frame::Enter(start)];
            while let Some(frame) = stack.pop() {
                match frame {
                    Frame::Exit(n) => {
                        marks.insert(n, Mark::Black);
                    }
                    Frame::Enter(n) => {
                        match marks.get(&n).copied().unwrap_or(Mark::White) {
                            Mark::Black => continue,
                            Mark::Grey => {
                                if !flagged {
                                    report.push(
                                        file,
                                        0,
                                        NL004_COMB_LOOP,
                                        format!("combinational loop through `{}`", net.bit_name(n)),
                                    );
                                    flagged = true; // one cycle report is enough
                                }
                                continue;
                            }
                            Mark::White => {}
                        }
                        marks.insert(n, Mark::Grey);
                        stack.push(Frame::Exit(n));
                        for d in &net.drivers[n.bus][n.bit] {
                            match d {
                                Driver::Copy { src, .. } => stack.push(Frame::Enter(*src)),
                                Driver::Rom { rom, .. } => {
                                    let addr = net.roms[*rom].addr;
                                    for k in 0..net.buses[addr].width {
                                        stack.push(Frame::Enter(NetBit { bus: addr, bit: k }));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// NL005–NL007 for one ROM.
fn lint_rom(
    net: &Netlist,
    rom: &NetRom,
    file: &str,
    spec_vacuous_inputs: &[usize],
    report: &mut LintReport,
) {
    let w = net.buses[rom.addr].width;
    let addr_name = &net.buses[rom.addr].name;

    let mut seen: HashMap<u64, usize> = HashMap::new();
    for &(line, address, _) in &rom.arms {
        if let Some(first) = seen.insert(address, line) {
            report.push(
                file,
                line,
                NL006_CASE_OVERLAP,
                format!("address {address} matched twice (first at line {first})"),
            );
        }
    }
    if w > MAX_ENUM_ADDR_BITS {
        report.push(
            file,
            rom.line,
            NL009_STRUCTURE,
            format!("address bus `{addr_name}` is {w} bits wide; case analysis skipped"),
        );
        return;
    }
    let total = 1usize << w;
    if seen.len() < total {
        report.push(
            file,
            rom.line,
            NL005_CASE_INCOMPLETE,
            format!(
                "case enumerates {} of {total} addresses{}",
                seen.len(),
                if rom.default.is_some() {
                    " (the default silently zero-fills the rest)"
                } else {
                    " and has no default"
                }
            ),
        );
    }

    // NL007: a vacuous address bit means the cell memory could be halved.
    let words = rom_words(rom, w);
    for k in 0..w {
        let mask = 1u64 << k;
        let vacuous = (0..total as u64)
            .filter(|a| a & mask == 0)
            .all(|a| words[a as usize] == words[(a | mask) as usize]);
        if vacuous {
            // Expected when the bit is fed by an input the spec ignores.
            let from_spec_vacuous_input = matches!(
                resolve_root(net, NetBit { bus: rom.addr, bit: k }),
                Ok(Root::Input(i)) if spec_vacuous_inputs.contains(&i)
            );
            if from_spec_vacuous_input {
                continue;
            }
            report.push(
                file,
                rom.line,
                NL007_UNUSED_ADDRESS_BIT,
                format!("address bit `{addr_name}[{k}]` never affects the stored word"),
            );
        }
    }
}

/// The full 2^w word table: explicit arms, then the default, then 0.
fn rom_words(rom: &NetRom, w: usize) -> Vec<u64> {
    let fill = rom.default.map_or(0, |(_, word)| word);
    let mut words = vec![fill; 1 << w];
    for &(_, address, word) in &rom.arms {
        if (address as usize) < words.len() {
            words[address as usize] = word;
        }
    }
    words
}

// ---------------------------------------------------------------------
// Reconstruction: netlist → Cascade (TV003)
// ---------------------------------------------------------------------

/// Where a bit ultimately comes from, after collapsing copy chains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Root {
    /// Primary input bit `i`.
    Input(usize),
    /// Bit `bit` of ROM `rom`'s word.
    Rom(usize, usize),
}

fn resolve_root(net: &Netlist, start: NetBit) -> Result<Root, String> {
    let mut cur = start;
    let mut hops = 0usize;
    loop {
        if net.buses[cur.bus].kind == BusKind::Input {
            return Ok(Root::Input(cur.bit));
        }
        let drivers = &net.drivers[cur.bus][cur.bit];
        match drivers.first() {
            None => return Err(format!("`{}` is undriven", net.bit_name(cur))),
            Some(Driver::Rom { rom, bit }) => return Ok(Root::Rom(*rom, *bit)),
            Some(Driver::Copy { src, .. }) => {
                cur = *src;
                hops += 1;
                if hops > net.buses.iter().map(|b| b.width).sum::<usize>() {
                    return Err(format!("copy cycle through `{}`", net.bit_name(start)));
                }
            }
        }
    }
}

/// Rebuilds a [`Cascade`] from the wiring pattern of a lowered artifact:
/// ROMs are cells, copy chains from data words into the next address bus
/// are rails, copies into the output port are primary outputs.
///
/// # Errors
///
/// Returns a report of [`TV003_RECONSTRUCTION`] findings when the
/// topology is not a single linear LUT-cascade chain.
pub fn netlist_to_cascade(net: &Netlist, file: &str) -> Result<Cascade, LintReport> {
    let fail = |line: usize, msg: String| -> LintReport {
        let mut r = LintReport::new();
        r.push(file, line, TV003_RECONSTRUCTION, msg);
        r
    };

    let Some(input) = net.input_bus() else {
        return Err(fail(
            0,
            "the netlist does not have exactly one input bus".into(),
        ));
    };
    let Some(output) = net.output_bus() else {
        return Err(fail(
            0,
            "the netlist does not have exactly one output bus".into(),
        ));
    };

    // Primary outputs: each output-port bit must root at a ROM word bit.
    let mut rom_outputs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); net.roms.len()];
    for j in 0..net.buses[output].width {
        match resolve_root(
            net,
            NetBit {
                bus: output,
                bit: j,
            },
        ) {
            Ok(Root::Rom(r, k)) => rom_outputs[r].push((k, j)),
            Ok(Root::Input(i)) => {
                return Err(fail(
                    0,
                    format!("output bit y[{j}] is wired straight to input x[{i}]"),
                ))
            }
            Err(e) => return Err(fail(0, format!("output bit y[{j}]: {e}"))),
        }
    }
    let mut num_primary_outs = vec![0usize; net.roms.len()];
    for (r, outs) in rom_outputs.iter_mut().enumerate() {
        outs.sort_unstable();
        for (slot, &(k, _)) in outs.iter().enumerate() {
            if k != slot {
                return Err(fail(
                    net.roms[r].line,
                    format!(
                        "ROM `{}` exposes word bit {k} as a primary output but bit {slot} \
                         is not a primary output (outputs must occupy the low word bits)",
                        net.buses[net.roms[r].target].name
                    ),
                ));
            }
        }
        num_primary_outs[r] = outs.len();
    }

    // Address buses: the low bits must be the previous ROM's rail code,
    // the rest primary inputs — exactly the LutCell addressing layout.
    struct RomShape {
        rails_in: usize,
        input_ids: Vec<usize>,
        prev: Option<usize>,
    }
    let mut shapes: Vec<RomShape> = Vec::with_capacity(net.roms.len());
    for rom in &net.roms {
        let w = net.buses[rom.addr].width;
        if w > MAX_ENUM_ADDR_BITS {
            return Err(fail(
                rom.line,
                format!(
                    "address bus `{}` too wide to reconstruct",
                    net.buses[rom.addr].name
                ),
            ));
        }
        let mut rails_in = 0usize;
        let mut input_ids = Vec::new();
        let mut prev: Option<usize> = None;
        for p in 0..w {
            let root = resolve_root(
                net,
                NetBit {
                    bus: rom.addr,
                    bit: p,
                },
            )
            .map_err(|e| fail(rom.line, format!("address bit {p}: {e}")))?;
            match root {
                Root::Rom(src, bit) => {
                    if !input_ids.is_empty() {
                        return Err(fail(
                            rom.line,
                            format!(
                                "address bit {p} carries a rail above a primary input \
                                 (rails must be the low address bits)"
                            ),
                        ));
                    }
                    if prev.is_some_and(|q| q != src) {
                        return Err(fail(
                            rom.line,
                            "address bus mixes rails from two different cells".into(),
                        ));
                    }
                    prev = Some(src);
                    let expect = num_primary_outs[src] + rails_in;
                    if bit != expect {
                        return Err(fail(
                            rom.line,
                            format!(
                                "address bit {p} taps word bit {bit} of `{}` but the rail \
                                 code starts at bit {} (expected bit {expect})",
                                net.buses[net.roms[src].target].name, num_primary_outs[src]
                            ),
                        ));
                    }
                    rails_in += 1;
                }
                Root::Input(i) => input_ids.push(i),
            }
        }
        shapes.push(RomShape {
            rails_in,
            input_ids,
            prev,
        });
    }

    // Chain the ROMs head to tail.
    let mut next = vec![None; net.roms.len()];
    let mut heads = Vec::new();
    for (r, shape) in shapes.iter().enumerate() {
        match shape.prev {
            None => heads.push(r),
            Some(p) => {
                if next[p].replace(r).is_some() {
                    return Err(fail(
                        net.roms[r].line,
                        format!(
                            "ROM `{}` feeds rails into two downstream cells",
                            net.buses[net.roms[p].target].name
                        ),
                    ));
                }
            }
        }
    }
    if heads.len() != 1 {
        return Err(fail(
            0,
            format!(
                "expected one head cell (no incoming rails), found {}",
                heads.len()
            ),
        ));
    }
    let mut order = Vec::with_capacity(net.roms.len());
    let mut cur = Some(heads[0]);
    while let Some(r) = cur {
        order.push(r);
        cur = next[r];
    }
    if order.len() != net.roms.len() {
        return Err(fail(
            0,
            format!(
                "the rail chain covers {} of {} cells (disconnected or cyclic topology)",
                order.len(),
                net.roms.len()
            ),
        ));
    }

    // Materialize the cells.
    let mut cells = Vec::with_capacity(order.len());
    for &r in &order {
        let rom = &net.roms[r];
        let w = net.buses[rom.addr].width;
        let width = net.buses[rom.target].width;
        let shape = &shapes[r];
        if width > 64 {
            return Err(fail(
                rom.line,
                format!(
                    "`{}` stores {width}-bit words; words are at most 64 bits",
                    net.buses[rom.target].name
                ),
            ));
        }
        let rails_out = width - num_primary_outs[r];
        let words = rom_words(rom, w);
        if width < 64 {
            if let Some(&bad) = words.iter().find(|&&word| word >> width != 0) {
                return Err(fail(
                    rom.line,
                    format!(
                        "stored word {bad} sets bits beyond the {width}-bit data bus of `{}`",
                        net.buses[rom.target].name
                    ),
                ));
            }
        }
        // The output-port bit each low word bit maps to, in slot order.
        let output_ids: Vec<usize> = rom_outputs[r].iter().map(|&(_, j)| j).collect();
        cells.push(LutCell::new(
            shape.rails_in,
            shape.input_ids.clone(),
            rails_out,
            output_ids,
            words,
        ));
    }

    Cascade::from_cells(cells, net.buses[input].width, net.buses[output].width)
        .map_err(|e| fail(0, format!("cell chain is not a valid cascade: {e}")))
}

/// First difference between two cascades, cell by cell and word by word;
/// `None` when they are structurally identical.
pub fn cascade_structural_diff(a: &Cascade, b: &Cascade) -> Option<String> {
    if a.num_inputs() != b.num_inputs() {
        return Some(format!(
            "input count {} vs {}",
            a.num_inputs(),
            b.num_inputs()
        ));
    }
    if a.num_outputs() != b.num_outputs() {
        return Some(format!(
            "output count {} vs {}",
            a.num_outputs(),
            b.num_outputs()
        ));
    }
    if a.num_cells() != b.num_cells() {
        return Some(format!("cell count {} vs {}", a.num_cells(), b.num_cells()));
    }
    for (i, (ca, cb)) in a.cells().iter().zip(b.cells()).enumerate() {
        if ca.rails_in() != cb.rails_in()
            || ca.rails_out() != cb.rails_out()
            || ca.input_ids() != cb.input_ids()
            || ca.output_ids() != cb.output_ids()
        {
            return Some(format!("cell {i} geometry differs"));
        }
        for address in 0..1u64 << ca.num_inputs() {
            let rail_in = if ca.rails_in() == 0 {
                0
            } else {
                address & ((1u64 << ca.rails_in()) - 1)
            };
            let inputs: Vec<bool> = (0..ca.input_ids().len())
                .map(|k| address >> (ca.rails_in() + k) & 1 == 1)
                .collect();
            if ca.lookup(rail_in, &inputs) != cb.lookup(rail_in, &inputs) {
                return Some(format!("cell {i} table differs at address {address}"));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Translation validation: χ_netlist (TV004)
// ---------------------------------------------------------------------

/// Rebuilds the characteristic function of the artifact symbolically:
/// every bit's BDD is derived from its driver (all data bits of a ROM at
/// once, see the module docs), and `χ_netlist = ∧_j (y_j ↔ f_j)` over
/// the output port. No simulation is involved — this is the
/// translation-validation obligation.
///
/// # Errors
///
/// Returns [`TV003_RECONSTRUCTION`]-class findings when the netlist
/// shape prevents the derivation (undriven bits, loops, port/layout
/// arity mismatches, ROM words wider than 64 bits).
pub fn netlist_chi(
    net: &Netlist,
    mgr: &mut BddManager,
    layout: &CfLayout,
    file: &str,
) -> Result<NodeId, LintReport> {
    let fail = |line: usize, msg: String| -> LintReport {
        let mut r = LintReport::new();
        r.push(file, line, TV003_RECONSTRUCTION, msg);
        r
    };
    let Some(input) = net.input_bus() else {
        return Err(fail(
            0,
            "the netlist does not have exactly one input bus".into(),
        ));
    };
    let Some(output) = net.output_bus() else {
        return Err(fail(
            0,
            "the netlist does not have exactly one output bus".into(),
        ));
    };
    if net.buses[input].width != layout.num_inputs().max(1) {
        return Err(fail(
            net.buses[input].line,
            format!(
                "input port is {} bits wide but the specification has {} inputs",
                net.buses[input].width,
                layout.num_inputs()
            ),
        ));
    }
    if net.buses[output].width != layout.num_outputs().max(1) {
        return Err(fail(
            net.buses[output].line,
            format!(
                "output port is {} bits wide but the specification has {} outputs",
                net.buses[output].width,
                layout.num_outputs()
            ),
        ));
    }

    let mut bits = BitFunctions {
        net,
        layout,
        input,
        memo: HashMap::new(),
        roms: vec![None; net.roms.len()],
    };
    let mut conjuncts = Vec::with_capacity(layout.num_outputs());
    for j in 0..layout.num_outputs() {
        let f = bits
            .of(
                mgr,
                NetBit {
                    bus: output,
                    bit: j,
                },
            )
            .map_err(|e| fail(0, format!("output bit y[{j}]: {e}")))?;
        let y = mgr.var(layout.output_var(j));
        conjuncts.push(mgr.iff(y, f));
    }
    Ok(mgr.and_many(&conjuncts))
}

/// The memoized bit functions of one [`netlist_chi`] derivation.
struct BitFunctions<'a> {
    net: &'a Netlist,
    layout: &'a CfLayout,
    input: usize,
    /// Every non-input bit visited; `None` while its derivation is on the
    /// stack, so a revisit is a combinational loop.
    memo: HashMap<NetBit, Option<NodeId>>,
    /// Every data bit of each ROM, once the ROM has been composed.
    roms: Vec<Option<Vec<NodeId>>>,
}

impl BitFunctions<'_> {
    /// The function of `bit`, derived from its driver.
    fn of(&mut self, mgr: &mut BddManager, bit: NetBit) -> Result<NodeId, String> {
        let net = self.net;
        if bit.bus == self.input {
            if bit.bit >= self.layout.num_inputs() {
                return Ok(FALSE); // width-padded degenerate input port
            }
            return Ok(mgr.var(self.layout.input_var(bit.bit)));
        }
        match self.memo.get(&bit) {
            Some(&Some(id)) => return Ok(id),
            Some(None) => {
                return Err(format!(
                    "combinational loop through `{}`",
                    net.bit_name(bit)
                ))
            }
            None => {}
        }
        self.memo.insert(bit, None);
        let id = match net.drivers[bit.bus][bit.bit].first() {
            None => return Err(format!("`{}` is undriven", net.bit_name(bit))),
            Some(&Driver::Copy { src, .. }) => self.of(mgr, src)?,
            Some(&Driver::Rom { rom, bit: word_bit }) => {
                if self.roms[rom].is_none() {
                    self.roms[rom] = Some(self.compose(mgr, rom)?);
                }
                match self.roms[rom].as_deref().and_then(|f| f.get(word_bit)) {
                    Some(&id) => id,
                    None => {
                        return Err(format!(
                            "`{}` reads word bit {word_bit}, beyond its ROM's data bus",
                            net.bit_name(bit)
                        ))
                    }
                }
            }
        };
        self.memo.insert(bit, Some(id));
        Ok(id)
    }

    /// Every data bit of ROM `rom`, composed over its address functions.
    fn compose(&mut self, mgr: &mut BddManager, rom: usize) -> Result<Vec<NodeId>, String> {
        let net = self.net;
        let (addr, target) = (net.roms[rom].addr, &net.buses[net.roms[rom].target]);
        if target.width > 64 {
            return Err(format!(
                "`{}` stores {}-bit words; words are at most 64 bits",
                target.name, target.width
            ));
        }
        let w = net.buses[addr].width;
        if w > MAX_ENUM_ADDR_BITS {
            return Err(format!(
                "address bus `{}` too wide to expand",
                net.buses[addr].name
            ));
        }
        let mut addr_bdds = Vec::with_capacity(w);
        for k in 0..w {
            addr_bdds.push(self.of(mgr, NetBit { bus: addr, bit: k })?);
        }
        let words = rom_words(&net.roms[rom], w);
        Ok(RomStates::compose(mgr, &addr_bdds, &words, target.width))
    }
}

/// One ROM's cofactor states. A state is a vector of address functions
/// (LSB first) with at least one non-constant entry; an all-constant
/// vector is an address and selects a stored word instead. States are
/// interned in one flat buffer, so composing a ROM allocates nothing
/// per state.
struct RomStates<'a> {
    words: &'a [u64],
    /// Address bits (entries per state).
    arity: usize,
    /// Data bits (functions per state).
    width: usize,
    /// The states' vectors, `arity` entries each, in interning order; a
    /// candidate vector is written at the tail before it is looked up.
    keys: Vec<NodeId>,
    /// Vector hash → latest state with that hash; `chain[s]` is the
    /// state interned before `s` with the same hash (`u32::MAX` ends).
    heads: FastMap<u64, u32>,
    chain: Vec<u32>,
    /// The states' data bit functions, `width` entries each.
    bits: Vec<NodeId>,
    /// Data bit functions of the cofactors being joined, `width` each.
    stack: Vec<NodeId>,
}

impl RomStates<'_> {
    /// Composes all `width` data bits of the word table `words` over the
    /// address functions `addr`, with one `mk` per state and data bit.
    fn compose(mgr: &mut BddManager, addr: &[NodeId], words: &[u64], width: usize) -> Vec<NodeId> {
        debug_assert_eq!(words.len(), 1 << addr.len());
        let mut states = RomStates {
            words,
            arity: addr.len(),
            width,
            keys: addr.to_vec(),
            heads: FastMap::default(),
            chain: Vec::new(),
            bits: Vec::new(),
            stack: Vec::new(),
        };
        states.intern(mgr);
        states.stack
    }

    /// Pushes the data bits of the candidate at the tail of `keys` onto
    /// `stack`. A new state is interned, and its bits are joined from its
    /// two cofactors on its topmost variable.
    fn intern(&mut self, mgr: &mut BddManager) {
        let start = self.keys.len() - self.arity;
        let mut top = u32::MAX;
        let mut address = 0usize;
        let mut hasher = FxLikeHasher::default();
        for (k, &a) in self.keys[start..].iter().enumerate() {
            top = top.min(mgr.level_of_node(a));
            address |= usize::from(a == TRUE) << k;
            hasher.write_u32(a.raw());
        }
        if top == u32::MAX {
            self.keys.truncate(start);
            let word = self.words[address];
            let bit = |b: usize| if word >> b & 1 == 1 { TRUE } else { FALSE };
            self.stack.extend((0..self.width).map(bit));
            return;
        }
        let hash = hasher.finish();
        let mut next = self.heads.get(&hash).copied().unwrap_or(u32::MAX);
        while next != u32::MAX {
            let s = next as usize;
            if self.keys[s * self.arity..][..self.arity] == self.keys[start..] {
                self.keys.truncate(start);
                let bits = &self.bits[s * self.width..][..self.width];
                self.stack.extend_from_slice(bits);
                return;
            }
            next = self.chain[s];
        }
        let state = start / self.arity;
        let previous = self.heads.insert(hash, state as u32);
        self.chain.push(previous.unwrap_or(u32::MAX));
        self.bits.resize((state + 1) * self.width, FALSE);
        for value in [false, true] {
            for k in start..start + self.arity {
                let a = self.keys[k];
                self.keys.push(match (mgr.level_of_node(a) == top, value) {
                    (false, _) => a,
                    (true, false) => mgr.lo(a),
                    (true, true) => mgr.hi(a),
                });
            }
            self.intern(mgr);
        }
        let var = mgr.var_at(top);
        let at = self.stack.len() - 2 * self.width;
        for b in 0..self.width {
            let (lo, hi) = (self.stack[at + b], self.stack[at + self.width + b]);
            self.stack[at + b] = mgr.mk(var, lo, hi);
        }
        self.stack.truncate(at + self.width);
        self.bits[state * self.width..][..self.width].copy_from_slice(&self.stack[at..]);
    }
}

/// The TV004 obligation: `χ_netlist ⇒ χ_spec`, proved on the BDDs with
/// the same oracle `bddcf check` uses for reductions
/// ([`Cf::original_chi`]). The artifact realizes a *completion* of the
/// specification, so the implication — never equivalence — is the
/// correct refinement direction.
pub fn check_netlist_refinement(net: &Netlist, cf: &mut Cf, file: &str) -> LintReport {
    let layout = cf.layout().clone();
    let original = cf.original_chi();
    let chi_net = match netlist_chi(net, cf.manager_mut(), &layout, file) {
        Ok(chi) => chi,
        Err(report) => return report,
    };
    let mut report = LintReport::new();
    if cf.manager_mut().implies(chi_net, original) != TRUE {
        report.push(
            file,
            0,
            TV004_REFINEMENT,
            "the artifact's characteristic function does not refine the \
             specification: χ_netlist ⇏ χ_spec",
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_cascade::{synthesize, CascadeOptions};
    use bddcf_io::verilog_parse::parse_verilog;
    use bddcf_io::{cascade_to_verilog, read_cascade, write_cascade};
    use bddcf_logic::TruthTable;

    fn sample() -> (Cascade, Cf) {
        let table = TruthTable::paper_table1();
        let mut cf = Cf::from_truth_table(&table);
        cf.reduce_alg33_default();
        let cascade = synthesize(
            &mut cf,
            &CascadeOptions {
                max_cell_inputs: 4,
                max_cell_outputs: 4,
                ..CascadeOptions::default()
            },
        )
        .expect("paper example fits");
        (cascade, cf)
    }

    fn lowered(cascade: &Cascade) -> Netlist {
        let text = cascade_to_verilog(cascade, "m").expect("valid name");
        let module = parse_verilog(&text).expect("emitted Verilog parses");
        let (net, report) = netlist_from_verilog(&module, "m.v");
        assert!(report.is_clean(), "{report}");
        net
    }

    #[test]
    fn emitted_verilog_lowers_and_lints_clean() {
        let (cascade, _) = sample();
        let net = lowered(&cascade);
        let report = lint_netlist(&net, "m.v");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn emitted_verilog_reconstructs_the_same_cascade() {
        let (cascade, _) = sample();
        let net = lowered(&cascade);
        let rebuilt = netlist_to_cascade(&net, "m.v").expect("reconstructs");
        assert!(cascade_structural_diff(&cascade, &rebuilt).is_none());
        // Byte-faithful round trip.
        let original = cascade_to_verilog(&cascade, "m").expect("valid name");
        let re_emitted = cascade_to_verilog(&rebuilt, "m").expect("valid name");
        assert_eq!(
            original, re_emitted,
            "emit → parse → re-emit must be identity"
        );
    }

    #[test]
    fn cascade_text_path_matches_the_verilog_path() {
        let (cascade, _) = sample();
        let loaded = read_cascade(&write_cascade(&cascade)).expect("round trips");
        let net = cascade_to_netlist(&loaded, "m");
        let report = lint_netlist(&net, "m.cas");
        assert!(report.is_clean(), "{report}");
        let rebuilt = netlist_to_cascade(&net, "m.cas").expect("reconstructs");
        assert!(cascade_structural_diff(&cascade, &rebuilt).is_none());
    }

    #[test]
    fn chi_reconstruction_refines_the_specification() {
        let (cascade, mut cf) = sample();
        let net = lowered(&cascade);
        let report = check_netlist_refinement(&net, &mut cf, "m.v");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn a_driver_past_the_rom_word_is_a_finding() {
        let (cascade, mut cf) = sample();
        let mut net = lowered(&cascade);
        let data = net.roms[0].target;
        net.drivers[data][0] = vec![Driver::Rom { rom: 0, bit: 7 }];
        let report = check_netlist_refinement(&net, &mut cf, "m.v");
        assert!(report.has(TV003_RECONSTRUCTION), "{report}");
    }

    #[test]
    fn a_corrupted_rom_word_breaks_refinement() {
        let (cascade, mut cf) = sample();
        let mut net = lowered(&cascade);
        // Flip one care data bit in the first ROM: TV004 must catch it.
        // (Search for an arm whose flip violates the specification; with
        // don't cares, not every flip does, so try them all.)
        let mut caught = false;
        'outer: for rom in 0..net.roms.len() {
            for arm in 0..net.roms[rom].arms.len() {
                let mut mutant = net.clone();
                mutant.roms[rom].arms[arm].2 ^= 1;
                let report = check_netlist_refinement(&mutant, &mut cf, "m.v");
                if report.has(TV004_REFINEMENT) {
                    net = mutant;
                    caught = true;
                    break 'outer;
                }
            }
        }
        assert!(caught, "no single-bit ROM corruption was caught");
        let _ = net;
    }
}
