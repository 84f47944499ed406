//! Espresso-style PLA reading and writing.
//!
//! Supported directives: `.i`, `.o`, `.p` (ignored count), `.ilb`, `.ob`,
//! `.type` (accepted, recorded), `.e`/`.end`, `#` comments. Cube lines have
//! an input part over `{0,1,-}` and an output part over `{0,1,-,~,d}`.
//!
//! # Semantics
//!
//! The parsed object is an *incompletely specified* multiple-output
//! function with clean ISF semantics:
//!
//! * a minterm covered by a cube whose output char is `1` joins that
//!   output's ON set,
//! * covered with `0` or `~` joins the OFF set,
//! * `-`/`d` leaves it unconstrained by this cube,
//! * minterms covered by no cube (or only by don't-care outputs) are
//!   **don't care**,
//! * a minterm driven both ON and OFF for the same output is a
//!   [`PlaError::Conflict`].
//!
//! (This is the `fr`-type reading; plain `f`-type files that rely on
//! "unlisted means 0" should be completed by the caller — see
//! [`Pla::with_default_off`].)

use bddcf_bdd::{BddManager, NodeId, Var, FALSE};
use bddcf_core::{CfLayout, IsfBdds};
use bddcf_logic::TruthTable;
use std::fmt;

/// A parsed PLA file.
#[derive(Clone, Debug)]
pub struct Pla {
    /// Number of inputs.
    pub num_inputs: usize,
    /// Number of outputs.
    pub num_outputs: usize,
    /// Input names (`.ilb`), defaulting to `x1..xn`.
    pub input_names: Vec<String>,
    /// Output names (`.ob`), defaulting to `f1..fm`.
    pub output_names: Vec<String>,
    /// Cubes: (input literals as `Option<bool>` per input, output chars).
    pub cubes: Vec<(Vec<Option<bool>>, Vec<OutputSpec>)>,
    /// Whether uncovered minterms default to OFF instead of don't care.
    pub default_off: bool,
}

/// What one cube says about one output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputSpec {
    /// `1` — the covered minterms are ON.
    On,
    /// `0` / `~` — the covered minterms are OFF.
    Off,
    /// `-` / `d` — this cube does not constrain the output.
    Unspecified,
}

/// Parse or conversion failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlaError {
    /// A malformed line, with its 1-based number and a description.
    Syntax(usize, String),
    /// `.i`/`.o` missing before the first cube.
    MissingHeader,
    /// Some minterm is driven both ON and OFF for an output.
    Conflict {
        /// The 0-based output index with contradictory cubes.
        output: usize,
    },
}

impl fmt::Display for PlaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaError::Syntax(line, what) => write!(f, "line {line}: {what}"),
            PlaError::MissingHeader => write!(f, ".i/.o must precede the first cube"),
            PlaError::Conflict { output } => {
                write!(
                    f,
                    "output {} is driven both 0 and 1 on some minterm",
                    output + 1
                )
            }
        }
    }
}

impl std::error::Error for PlaError {}

/// Parses PLA text.
///
/// # Example
///
/// ```
/// let pla = bddcf_io::parse_pla(".i 2\n.o 1\n11 1\n0- 0\n.e\n").unwrap();
/// let mut cf = pla.to_cf().unwrap();
/// assert_eq!(cf.allowed_words(&[true, true]), vec![1]);
/// assert_eq!(cf.allowed_words(&[false, true]), vec![0]);
/// assert_eq!(cf.allowed_words(&[true, false]), vec![0, 1]); // uncovered => dc
/// ```
///
/// # Errors
///
/// Returns [`PlaError`] on malformed input.
pub fn parse_pla(text: &str) -> Result<Pla, PlaError> {
    let mut num_inputs: Option<usize> = None;
    let mut num_outputs: Option<usize> = None;
    let mut input_names: Option<Vec<String>> = None;
    let mut output_names: Option<Vec<String>> = None;
    let mut ilb_line = 0usize;
    let mut ob_line = 0usize;
    let mut cubes = Vec::new();
    let mut default_off = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('.') {
            let mut parts = rest.split_whitespace();
            let directive = parts
                .next()
                .ok_or_else(|| PlaError::Syntax(line_no, "empty directive".into()))?;
            match directive {
                "i" => {
                    if num_inputs.is_some() {
                        return Err(PlaError::Syntax(line_no, ".i redefined".into()));
                    }
                    num_inputs = Some(parse_count(parts.next(), line_no)?);
                    reject_trailing(parts.next(), ".i", line_no)?;
                }
                "o" => {
                    if num_outputs.is_some() {
                        return Err(PlaError::Syntax(line_no, ".o redefined".into()));
                    }
                    num_outputs = Some(parse_count(parts.next(), line_no)?);
                    reject_trailing(parts.next(), ".o", line_no)?;
                }
                "p" => { /* cube count hint — ignored */ }
                "ilb" => {
                    ilb_line = line_no;
                    input_names = Some(parts.map(str::to_owned).collect());
                }
                "ob" => {
                    ob_line = line_no;
                    output_names = Some(parts.map(str::to_owned).collect());
                }
                "type" => {
                    let t = parts.next().unwrap_or("");
                    if !matches!(t, "f" | "r" | "fd" | "fr" | "dr" | "fdr") {
                        return Err(PlaError::Syntax(
                            line_no,
                            format!("unknown .type {t:?} (expected f|r|fd|fr|dr|fdr)"),
                        ));
                    }
                    default_off = matches!(t, "f" | "fd");
                }
                "e" | "end" => break,
                other => {
                    return Err(PlaError::Syntax(
                        line_no,
                        format!("unknown directive .{other}"),
                    ))
                }
            }
            continue;
        }
        // A cube line.
        let (n, m) = match (num_inputs, num_outputs) {
            (Some(n), Some(m)) => (n, m),
            _ => {
                return Err(PlaError::Syntax(
                    line_no,
                    "cube before the .i/.o header".into(),
                ))
            }
        };
        let mut fields = line.split_whitespace();
        let inputs_part = fields
            .next()
            .ok_or_else(|| PlaError::Syntax(line_no, "missing input part".into()))?;
        // Outputs may be space-separated from inputs or glued when unambiguous.
        let outputs_part: String = fields.collect::<Vec<_>>().concat();
        let (inputs_part, outputs_part) = if outputs_part.is_empty() && inputs_part.len() == n + m {
            inputs_part.split_at(n)
        } else {
            (inputs_part, outputs_part.as_str())
        };
        if inputs_part.len() != n {
            return Err(PlaError::Syntax(
                line_no,
                format!("expected {n} input literals, got {}", inputs_part.len()),
            ));
        }
        if outputs_part.len() != m {
            return Err(PlaError::Syntax(
                line_no,
                format!("expected {m} output literals, got {}", outputs_part.len()),
            ));
        }
        let input_lits = inputs_part
            .chars()
            .map(|c| match c {
                '0' => Ok(Some(false)),
                '1' => Ok(Some(true)),
                '-' | 'x' | 'X' => Ok(None),
                other => Err(PlaError::Syntax(
                    line_no,
                    format!("invalid input literal {other:?}"),
                )),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let output_specs = outputs_part
            .chars()
            .map(|c| match c {
                '1' => Ok(OutputSpec::On),
                '0' | '~' => Ok(OutputSpec::Off),
                '-' | 'd' | 'D' => Ok(OutputSpec::Unspecified),
                other => Err(PlaError::Syntax(
                    line_no,
                    format!("invalid output literal {other:?}"),
                )),
            })
            .collect::<Result<Vec<_>, _>>()?;
        cubes.push((input_lits, output_specs));
    }

    let (n, m) = match (num_inputs, num_outputs) {
        (Some(n), Some(m)) if n > 0 && m > 0 => (n, m),
        _ => return Err(PlaError::MissingHeader),
    };
    let input_names = input_names.unwrap_or_else(|| (1..=n).map(|i| format!("x{i}")).collect());
    let output_names = output_names.unwrap_or_else(|| (1..=m).map(|j| format!("f{j}")).collect());
    if input_names.len() != n {
        return Err(PlaError::Syntax(
            ilb_line,
            format!(".ilb names {} input(s), .i says {n}", input_names.len()),
        ));
    }
    if output_names.len() != m {
        return Err(PlaError::Syntax(
            ob_line,
            format!(".ob names {} output(s), .o says {m}", output_names.len()),
        ));
    }
    Ok(Pla {
        num_inputs: n,
        num_outputs: m,
        input_names,
        output_names,
        cubes,
        default_off,
    })
}

fn parse_count(field: Option<&str>, line: usize) -> Result<usize, PlaError> {
    field
        .and_then(|s| s.parse().ok())
        .filter(|&v| v > 0 && v <= 64)
        .ok_or_else(|| PlaError::Syntax(line, "expected a count in 1..=64".into()))
}

fn reject_trailing(field: Option<&str>, directive: &str, line: usize) -> Result<(), PlaError> {
    match field {
        None => Ok(()),
        Some(extra) => Err(PlaError::Syntax(
            line,
            format!("trailing {extra:?} after {directive}"),
        )),
    }
}

impl Pla {
    /// The layout matching this file's arity.
    pub fn layout(&self) -> CfLayout {
        CfLayout::new(self.num_inputs, self.num_outputs)
    }

    /// Reinterprets the file with `f`-type semantics: uncovered minterms
    /// are OFF rather than don't care.
    pub fn with_default_off(mut self, default_off: bool) -> Pla {
        self.default_off = default_off;
        self
    }

    /// Builds the ON/OFF/DC sets in `mgr` (laid out per
    /// [`Pla::layout`]).
    ///
    /// # Errors
    ///
    /// [`PlaError::Conflict`] if some output is driven both ways on a
    /// minterm.
    pub fn build_isf(&self, mgr: &mut BddManager) -> Result<IsfBdds, PlaError> {
        let layout = self.layout();
        let mut on = vec![FALSE; self.num_outputs];
        let mut off = vec![FALSE; self.num_outputs];
        for (lits, outs) in &self.cubes {
            let cube = cube_bdd(mgr, &layout, lits);
            for (j, spec) in outs.iter().enumerate() {
                match spec {
                    OutputSpec::On => on[j] = mgr.or(on[j], cube),
                    OutputSpec::Off => off[j] = mgr.or(off[j], cube),
                    OutputSpec::Unspecified => {}
                }
            }
        }
        let mut dc = Vec::with_capacity(self.num_outputs);
        for j in 0..self.num_outputs {
            if mgr.intersects(on[j], off[j]) {
                return Err(PlaError::Conflict { output: j });
            }
            if self.default_off {
                off[j] = mgr.not(on[j]);
                dc.push(FALSE);
            } else {
                let covered = mgr.or(on[j], off[j]);
                dc.push(mgr.not(covered));
            }
        }
        Ok(IsfBdds { on, off, dc })
    }

    /// Parses and builds the characteristic function in one step.
    ///
    /// # Errors
    ///
    /// Propagates [`PlaError::Conflict`].
    pub fn to_cf(&self) -> Result<bddcf_core::Cf, PlaError> {
        let layout = self.layout();
        let mut mgr = layout.new_manager();
        let isf = self.build_isf(&mut mgr)?;
        Ok(bddcf_core::Cf::from_isf(mgr, layout, isf))
    }
}

fn cube_bdd(mgr: &mut BddManager, layout: &CfLayout, lits: &[Option<bool>]) -> NodeId {
    let literals: Vec<(Var, bool)> = lits
        .iter()
        .enumerate()
        .filter_map(|(i, &lit)| lit.map(|v| (layout.input_var(i), v)))
        .collect();
    mgr.cube(&literals)
}

/// Serializes an explicit truth table as a minterm-per-line PLA
/// (don't cares become `-` outputs; all-don't-care rows are omitted).
pub fn write_pla(table: &TruthTable, input_names: Option<&[String]>) -> String {
    use std::fmt::Write as _;
    let n = table.num_inputs();
    let m = table.num_outputs();
    let mut out = String::new();
    let _ = writeln!(out, ".i {n}");
    let _ = writeln!(out, ".o {m}");
    if let Some(names) = input_names {
        let _ = writeln!(out, ".ilb {}", names.join(" "));
    }
    let rows: Vec<usize> = (0..table.num_rows())
        .filter(|&r| table.row(r).iter().any(|v| !v.is_dont_care()))
        .collect();
    let _ = writeln!(out, ".p {}", rows.len());
    for r in rows {
        // Input bits MSB-first per PLA convention: leftmost char = input 0.
        for i in 0..n {
            out.push(if r >> i & 1 == 1 { '1' } else { '0' });
        }
        out.push(' ');
        for j in 0..m {
            out.push(match table.get(r, j).specified() {
                Some(true) => '1',
                Some(false) => '0',
                None => '-',
            });
        }
        out.push('\n');
    }
    out.push_str(".e\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_logic::MultiOracle;

    const SAMPLE: &str = "\
# the paper's Table 1 in cube form (partial, for parsing tests)
.i 4
.o 2
.ilb x1 x2 x3 x4
.ob f1 f2
.p 4
0-0- d1
001- 00
1-10 10
111- d0
.e
";

    #[test]
    fn parses_headers_and_cubes() {
        let pla = parse_pla(SAMPLE).expect("valid file");
        assert_eq!(pla.num_inputs, 4);
        assert_eq!(pla.num_outputs, 2);
        assert_eq!(pla.input_names[0], "x1");
        assert_eq!(pla.output_names[1], "f2");
        assert_eq!(pla.cubes.len(), 4);
        assert_eq!(pla.cubes[0].0, vec![Some(false), None, Some(false), None]);
        assert_eq!(
            pla.cubes[0].1,
            vec![OutputSpec::Unspecified, OutputSpec::On]
        );
    }

    #[test]
    fn isf_semantics_of_cubes() {
        let pla = parse_pla(SAMPLE).unwrap();
        let mut cf = pla.to_cf().expect("no conflicts");
        // 0-0- d1: input x1=0, x3=0 -> f2 = 1 forced, f1 free.
        let words = cf.allowed_words(&[false, false, false, false]);
        assert_eq!(words, vec![0b10, 0b11]);
        // 001-: f1=0, f2=0.
        let words = cf.allowed_words(&[false, false, true, false]);
        assert_eq!(words, vec![0b00]);
        // Uncovered minterm: everything allowed.
        let words = cf.allowed_words(&[true, false, false, false]);
        assert_eq!(words.len(), 4);
    }

    #[test]
    fn conflict_detection() {
        let text = ".i 2\n.o 1\n0- 1\n00 0\n.e\n";
        let pla = parse_pla(text).unwrap();
        let mut mgr = pla.layout().new_manager();
        assert_eq!(
            pla.build_isf(&mut mgr).unwrap_err(),
            PlaError::Conflict { output: 0 }
        );
    }

    #[test]
    fn type_f_defaults_to_off() {
        let text = ".i 2\n.o 1\n.type fd\n11 1\n.e\n";
        let pla = parse_pla(text).unwrap();
        assert!(pla.default_off);
        let mut cf = pla.to_cf().unwrap();
        assert_eq!(cf.allowed_words(&[false, false]), vec![0]);
        assert_eq!(cf.allowed_words(&[true, true]), vec![1]);
    }

    #[test]
    fn glued_cube_format() {
        let text = ".i 3\n.o 2\n00111\n.e\n";
        let pla = parse_pla(text).unwrap();
        assert_eq!(pla.cubes.len(), 1);
        assert_eq!(pla.cubes[0].1, vec![OutputSpec::On, OutputSpec::On]);
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let text = ".i 2\n.o 1\n0z 1\n";
        match parse_pla(text).unwrap_err() {
            PlaError::Syntax(3, what) => assert!(what.contains("invalid input")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_pla(".i 2\n.o 1\n.bogus\n").is_err());
    }

    /// Regression table: every way a file can be malformed must produce a
    /// [`PlaError::Syntax`] pointing at the offending 1-based line, with a
    /// recognizable description — never a panic, never silent acceptance.
    #[test]
    fn malformed_inputs_report_line_and_reason() {
        let cases: &[(&str, usize, &str)] = &[
            // (input text, expected line, expected message fragment)
            ("01 1\n", 1, "cube before"),
            (".o 1\n01 1\n", 2, "cube before"),
            (".i\n.o 1\n", 1, "count in 1..=64"),
            (".i 0\n.o 1\n", 1, "count in 1..=64"),
            (".i 65\n.o 1\n", 1, "count in 1..=64"),
            (".i -3\n.o 1\n", 1, "count in 1..=64"),
            (".i two\n.o 1\n", 1, "count in 1..=64"),
            (".i 2 junk\n.o 1\n", 1, "trailing"),
            (".i 2\n.i 3\n.o 1\n", 2, ".i redefined"),
            (".i 2\n.o 1\n.o 2\n", 3, ".o redefined"),
            (".i 2\n.o 1\n.type q\n", 3, "unknown .type"),
            (".i 2\n.o 1\n.bogus\n", 3, "unknown directive"),
            (".i 2\n.o 1\n.\n", 3, "empty directive"),
            (".i 2\n.o 1\n0 1\n", 3, "expected 2 input"),
            (".i 2\n.o 1\n000 1\n", 3, "expected 2 input"),
            (".i 2\n.o 1\n00 11\n", 3, "expected 1 output"),
            (".i 2\n.o 1\n00\n", 3, "expected 1 output"),
            (".i 2\n.o 1\n0z 1\n", 3, "invalid input literal"),
            (".i 2\n.o 1\n00 2\n", 3, "invalid output literal"),
            (".i 2\n.o 2\n.ilb a b c\n00 11\n", 3, ".ilb names 3"),
            (".i 2\n.o 2\n.ob f\n00 11\n", 3, ".ob names 1"),
        ];
        for &(text, line, fragment) in cases {
            match parse_pla(text) {
                Err(PlaError::Syntax(l, what)) => {
                    assert_eq!(l, line, "wrong line for {text:?}: {what}");
                    assert!(
                        what.contains(fragment),
                        "error for {text:?} is {what:?}, expected fragment {fragment:?}"
                    );
                }
                other => panic!("{text:?} produced {other:?}, expected a syntax error"),
            }
        }
        // A file that ends without ever declaring arity is the one
        // remaining non-positional error.
        assert!(matches!(
            parse_pla("# nothing\n").unwrap_err(),
            PlaError::MissingHeader
        ));
        assert!(matches!(
            parse_pla("").unwrap_err(),
            PlaError::MissingHeader
        ));
    }

    #[test]
    fn truncated_file_without_terminator_still_parses() {
        // espresso files often lack .e; truncation mid-cube-list must not
        // invent cubes or panic.
        let pla = parse_pla(".i 2\n.o 1\n00 1").unwrap();
        assert_eq!(pla.cubes.len(), 1);
    }

    #[test]
    fn write_then_parse_roundtrip() {
        let table = TruthTable::paper_table1();
        let text = write_pla(&table, None);
        let pla = parse_pla(&text).expect("self-written file parses");
        let mut cf = pla.to_cf().expect("no conflicts");
        for r in 0..16usize {
            let input: Vec<bool> = (0..4).map(|i| r >> i & 1 == 1).collect();
            for w in 0..4u64 {
                let expect = (0..2).all(|j| table.get(r, j).admits(w >> j & 1 == 1));
                assert_eq!(cf.admits(&input, w), expect, "row {r} word {w:02b}");
            }
        }
        let _ = table.respond(&[false; 4]); // silence unused-import lints
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# header\n\n.i 1\n.o 1  # inline\n\n0 1\n.e\n";
        let pla = parse_pla(text).unwrap();
        assert_eq!(pla.cubes.len(), 1);
    }
}
