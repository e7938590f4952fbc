//! ISCAS-85 `.bench` netlist ingestion: parser, writer, and lowering
//! onto the [`mis_digital::Network`] builder.
//!
//! The `.bench` format is the lingua franca of the ISCAS benchmark
//! distributions — line-oriented, with `INPUT(x)` / `OUTPUT(y)`
//! declarations and `z = FUNC(a, b, ...)` gate definitions, `#` comments,
//! and no ordering requirement (gates may reference signals defined
//! later in the file). [`BenchNetlist::parse`] accepts that full
//! generality; [`BenchNetlist::lower`] topologically sorts the gates and
//! emits a feed-forward [`Network`] (which *does* require declaration
//! order) with one timed cell per `.bench` gate.
//!
//! Fan-in beyond two is reduced through balanced trees of **zero-time**
//! gates, with the cell — the gate that carries the delay model — at the
//! root: an n-ary `NAND` becomes ideal `AND` subtrees feeding one
//! [`CellLibrary`]-realized `NAND2`, so every `.bench` gate contributes
//! exactly one channel's worth of delay regardless of width. `XNOR`
//! lowers as an ideal `XOR` tree with a celled `NOT` root. The cell
//! library is `mis_digital::netlists::CellLibrary` (re-exported here as
//! `mis_sim::CellLibrary`): lowering and the built-in benchmark netlists
//! realize gates through the same cells.
//!
//! # Examples
//!
//! ```
//! use mis_sim::{BenchNetlist, CellLibrary};
//! use mis_waveform::DigitalTrace;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "
//!     INPUT(a)
//!     INPUT(b)
//!     OUTPUT(y)
//!     y = NAND(a, b)  # one gate
//! ";
//! let parsed = BenchNetlist::parse(src)?;
//! assert_eq!(parsed.inputs().len(), 2);
//! let lowered = parsed.lower(&CellLibrary::ideal())?;
//! let a = DigitalTrace::constant(true);
//! let b = DigitalTrace::constant(true);
//! let traces = lowered.net.run(&[a, b])?;
//! assert!(!traces[lowered.outputs[0].index()].initial_value());
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;

use mis_digital::netlists::CellLibrary;
use mis_digital::{GateKind, Network, SignalId};

use crate::error::BenchError;

/// A gate function the `.bench` format can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchFunc {
    /// n-ary AND.
    And,
    /// n-ary OR.
    Or,
    /// n-ary NAND.
    Nand,
    /// n-ary NOR.
    Nor,
    /// n-ary XOR (odd parity).
    Xor,
    /// n-ary XNOR (even parity).
    Xnor,
    /// Unary inverter.
    Not,
    /// Unary buffer.
    Buff,
}

impl BenchFunc {
    /// Parses a (case-insensitive) function name; `BUF` is accepted as a
    /// synonym for `BUFF`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        let n = name.to_ascii_uppercase();
        Some(match n.as_str() {
            "AND" => BenchFunc::And,
            "OR" => BenchFunc::Or,
            "NAND" => BenchFunc::Nand,
            "NOR" => BenchFunc::Nor,
            "XOR" => BenchFunc::Xor,
            "XNOR" => BenchFunc::Xnor,
            "NOT" => BenchFunc::Not,
            "BUF" | "BUFF" => BenchFunc::Buff,
            _ => return None,
        })
    }

    /// The canonical upper-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BenchFunc::And => "AND",
            BenchFunc::Or => "OR",
            BenchFunc::Nand => "NAND",
            BenchFunc::Nor => "NOR",
            BenchFunc::Xor => "XOR",
            BenchFunc::Xnor => "XNOR",
            BenchFunc::Not => "NOT",
            BenchFunc::Buff => "BUFF",
        }
    }

    /// Whether the function takes exactly one operand.
    #[must_use]
    pub fn is_unary(self) -> bool {
        matches!(self, BenchFunc::Not | BenchFunc::Buff)
    }
}

/// One `z = FUNC(a, b, ...)` definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchGate {
    /// The driven signal.
    pub output: String,
    /// The gate function.
    pub func: BenchFunc,
    /// Operand signal names, in written order.
    pub inputs: Vec<String>,
}

/// A parsed `.bench` netlist: declarations and definitions in file
/// order, structurally validated (no duplicates, no dangling references,
/// no combinational cycles) but not yet lowered to a [`Network`].
#[derive(Debug, Clone)]
pub struct BenchNetlist {
    inputs: Vec<String>,
    outputs: Vec<String>,
    gates: Vec<BenchGate>,
    /// 1-based source line of each `INPUT` declaration, parallel to
    /// `inputs` (0 for programmatically assembled netlists).
    input_lines: Vec<usize>,
    /// 1-based source line of each `OUTPUT` declaration, parallel to
    /// `outputs` (0 when programmatic).
    output_lines: Vec<usize>,
    /// 1-based source line of each gate definition, parallel to `gates`
    /// (0 when programmatic).
    gate_lines: Vec<usize>,
    /// Gate indices in topological order, computed once at validation
    /// (a pure function of `gates`).
    topo: Vec<usize>,
}

/// Equality is over the *declarations* only: source-line spans are
/// provenance, not netlist content (the canonical writer re-flows lines,
/// and round-trip identity `parse(to_text(n)) == n` must survive that),
/// and `topo` is a pure function of `gates`.
impl PartialEq for BenchNetlist {
    fn eq(&self, other: &Self) -> bool {
        self.inputs == other.inputs && self.outputs == other.outputs && self.gates == other.gates
    }
}

impl Eq for BenchNetlist {}

/// A `.bench` netlist lowered onto the [`Network`] builder.
#[derive(Debug)]
pub struct LoweredNetlist {
    /// The feed-forward network (gates in topological order; fan-in
    /// reduction trees interleaved before their roots).
    pub net: Network,
    /// Primary inputs, in `INPUT` declaration order.
    pub inputs: Vec<SignalId>,
    /// Designated outputs, in `OUTPUT` declaration order.
    pub outputs: Vec<SignalId>,
}

impl BenchNetlist {
    /// Assembles and validates a netlist from its parts (the programmatic
    /// twin of [`BenchNetlist::parse`], used e.g. by fixture generators).
    ///
    /// # Errors
    ///
    /// The same semantic violations `parse` reports — [`BenchError::Empty`],
    /// [`BenchError::Duplicate`], [`BenchError::Undefined`],
    /// [`BenchError::BadArity`], [`BenchError::Syntax`] (for names the
    /// text form cannot carry), [`BenchError::Cycle`] — with `line 0`
    /// throughout, as there is no source text to point into.
    pub fn new(
        inputs: Vec<String>,
        outputs: Vec<String>,
        gates: Vec<BenchGate>,
    ) -> Result<Self, BenchError> {
        for g in &gates {
            check_arity(0, g.func, g.inputs.len())?;
        }
        let (ni, no, ng) = (inputs.len(), outputs.len(), gates.len());
        BenchNetlist {
            inputs,
            outputs,
            gates,
            input_lines: vec![0; ni],
            output_lines: vec![0; no],
            gate_lines: vec![0; ng],
            topo: Vec::new(),
        }
        .validated()
    }

    /// Primary input names, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }

    /// Output names, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[String] {
        &self.outputs
    }

    /// Gate definitions, in file order.
    #[must_use]
    pub fn gates(&self) -> &[BenchGate] {
        &self.gates
    }

    /// 1-based source line of each `INPUT` declaration, parallel to
    /// [`BenchNetlist::inputs`]. All zeros for netlists assembled with
    /// [`BenchNetlist::new`].
    #[must_use]
    pub fn input_lines(&self) -> &[usize] {
        &self.input_lines
    }

    /// 1-based source line of each `OUTPUT` declaration, parallel to
    /// [`BenchNetlist::outputs`] (0 when programmatic).
    #[must_use]
    pub fn output_lines(&self) -> &[usize] {
        &self.output_lines
    }

    /// 1-based source line of each gate definition, parallel to
    /// [`BenchNetlist::gates`] (0 when programmatic).
    #[must_use]
    pub fn gate_lines(&self) -> &[usize] {
        &self.gate_lines
    }

    /// Parses `.bench` text. Blank lines and `#` comments (whole-line or
    /// trailing) are ignored; `INPUT`/`OUTPUT` and function names are
    /// case-insensitive; whitespace is free around every token. Files
    /// exported from Windows tooling parse unchanged: CRLF line endings
    /// are accepted (both by `str::lines` and, for stray `\r`, by token
    /// trimming), and a leading UTF-8 byte-order mark is ignored.
    ///
    /// # Errors
    ///
    /// One [`BenchError`] variant per malformed-input class — see the
    /// variant docs.
    pub fn parse(text: &str) -> Result<Self, BenchError> {
        // The BOM would otherwise glue itself onto the first token and
        // turn `INPUT(...)` into an unrecognized keyword.
        let text = text.strip_prefix('\u{FEFF}').unwrap_or(text);
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut gates: Vec<BenchGate> = Vec::new();
        let mut input_lines = Vec::new();
        let mut output_lines = Vec::new();
        let mut gate_lines = Vec::new();
        for (no, raw) in text.lines().enumerate() {
            let line = no + 1;
            // Strip trailing comment, then surrounding whitespace.
            let code = raw.split('#').next().unwrap_or("").trim();
            if code.is_empty() {
                continue;
            }
            if let Some(eq) = code.find('=') {
                let name = code[..eq].trim();
                check_signal_name(line, name)?;
                let (func_name, args) = parse_call(line, code[eq + 1..].trim())?;
                let func =
                    BenchFunc::from_name(func_name).ok_or_else(|| BenchError::UnknownFunction {
                        line,
                        name: func_name.to_owned(),
                    })?;
                check_arity(line, func, args.len())?;
                gates.push(BenchGate {
                    output: name.to_owned(),
                    func,
                    inputs: args.iter().map(|&a| a.to_owned()).collect(),
                });
                gate_lines.push(line);
            } else {
                let (kw, args) = parse_call(line, code)?;
                let name = match (kw.to_ascii_uppercase().as_str(), args.as_slice()) {
                    ("INPUT", [name]) | ("OUTPUT", [name]) => *name,
                    ("INPUT" | "OUTPUT", _) => {
                        return Err(BenchError::Syntax {
                            line,
                            reason: format!("{kw} takes exactly one signal name"),
                        })
                    }
                    _ => {
                        return Err(BenchError::Syntax {
                            line,
                            reason: format!("expected INPUT/OUTPUT declaration, got '{kw}(...)'"),
                        })
                    }
                };
                if kw.eq_ignore_ascii_case("INPUT") {
                    inputs.push(name.to_owned());
                    input_lines.push(line);
                } else {
                    outputs.push(name.to_owned());
                    output_lines.push(line);
                }
            }
        }
        BenchNetlist {
            inputs,
            outputs,
            gates,
            input_lines,
            output_lines,
            gate_lines,
            topo: Vec::new(),
        }
        .validated()
    }

    /// Renders the netlist in canonical `.bench` form: `INPUT` block,
    /// `OUTPUT` block, then gate definitions in stored order. The output
    /// re-parses to an equal [`BenchNetlist`] (round-trip identity).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for i in &self.inputs {
            let _ = writeln!(s, "INPUT({i})");
        }
        s.push('\n');
        for o in &self.outputs {
            let _ = writeln!(s, "OUTPUT({o})");
        }
        s.push('\n');
        for g in &self.gates {
            let _ = write!(s, "{} = {}(", g.output, g.func.name());
            for (k, op) in g.inputs.iter().enumerate() {
                if k > 0 {
                    s.push_str(", ");
                }
                s.push_str(op);
            }
            s.push_str(")\n");
        }
        s
    }

    /// Semantic validation shared by [`BenchNetlist::parse`] and
    /// [`BenchNetlist::new`] — the single place every semantic violation
    /// is diagnosed, consuming the retained source spans so parsed
    /// netlists report real line numbers (programmatic ones report 0):
    /// well-formed signal names (the text form must be able to carry
    /// every name — redundant after `parse`, load-bearing for `new`), at
    /// least one input, no duplicate definitions (reported at the second
    /// occurrence in source order), no dangling references (reported at
    /// the first referencing line), no cycles. Stores the topological
    /// order for [`BenchNetlist::lower`] on success.
    fn validated(mut self) -> Result<Self, BenchError> {
        for (i, name) in self.inputs.iter().enumerate() {
            check_signal_name(self.input_lines[i], name)?;
        }
        for (i, name) in self.outputs.iter().enumerate() {
            check_signal_name(self.output_lines[i], name)?;
        }
        for (i, g) in self.gates.iter().enumerate() {
            check_signal_name(self.gate_lines[i], &g.output)?;
            for op in &g.inputs {
                check_signal_name(self.gate_lines[i], op)?;
            }
        }
        if self.inputs.is_empty() {
            return Err(BenchError::Empty);
        }
        // Definitions in source order (stable for the all-zero
        // programmatic spans, where vector order — inputs, then gates —
        // stands in for file order), so a duplicate is reported at its
        // *second* occurrence.
        let mut defs: Vec<(&str, usize)> = self
            .inputs
            .iter()
            .zip(&self.input_lines)
            .map(|(n, &l)| (n.as_str(), l))
            .chain(
                self.gates
                    .iter()
                    .zip(&self.gate_lines)
                    .map(|(g, &l)| (g.output.as_str(), l)),
            )
            .collect();
        defs.sort_by_key(|&(_, line)| line);
        let mut defined: HashMap<&str, ()> = HashMap::new();
        for (name, line) in defs {
            if defined.insert(name, ()).is_some() {
                return Err(BenchError::Duplicate {
                    line,
                    name: name.to_owned(),
                });
            }
        }
        // References in source order: gate operands at their gate's line,
        // `OUTPUT` declarations at their own.
        let mut refs: Vec<(&str, usize)> = self
            .gates
            .iter()
            .zip(&self.gate_lines)
            .flat_map(|(g, &l)| g.inputs.iter().map(move |op| (op.as_str(), l)))
            .chain(
                self.outputs
                    .iter()
                    .zip(&self.output_lines)
                    .map(|(n, &l)| (n.as_str(), l)),
            )
            .collect();
        refs.sort_by_key(|&(_, line)| line);
        for (name, line) in refs {
            if !defined.contains_key(name) {
                return Err(BenchError::Undefined {
                    line,
                    name: name.to_owned(),
                });
            }
        }
        self.topo = self.topo_order()?;
        Ok(self)
    }

    /// Gate indices in a topological order (inputs-before-users), stable
    /// with respect to file order among independent gates.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Cycle`] naming a signal on a cycle.
    fn topo_order(&self) -> Result<Vec<usize>, BenchError> {
        let gate_of: HashMap<&str, usize> = self
            .gates
            .iter()
            .enumerate()
            .map(|(i, g)| (g.output.as_str(), i))
            .collect();
        let mut order = Vec::with_capacity(self.gates.len());
        let mut placed = vec![false; self.gates.len()];
        // Repeated stable scans: quadratic in the worst case, but netlist
        // files are small and the scan preserves file order among ready
        // gates, which keeps lowering deterministic and diffable.
        loop {
            let mut progressed = false;
            for (i, g) in self.gates.iter().enumerate() {
                if placed[i] {
                    continue;
                }
                let ready = g
                    .inputs
                    .iter()
                    .all(|op| gate_of.get(op.as_str()).is_none_or(|&j| placed[j]));
                if ready {
                    placed[i] = true;
                    order.push(i);
                    progressed = true;
                }
            }
            if order.len() == self.gates.len() {
                return Ok(order);
            }
            if !progressed {
                let (line, stuck) = self
                    .gates
                    .iter()
                    .enumerate()
                    .find(|(i, _)| !placed[*i])
                    .map(|(i, g)| (self.gate_lines[i], g.output.clone()))
                    .unwrap_or_default();
                return Err(BenchError::Cycle { line, name: stuck });
            }
        }
    }

    /// Lowers the netlist onto a [`Network`], realizing each `.bench`
    /// gate as one `cells` cell (fan-in reduced through zero-time trees,
    /// see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates [`Network`] builder failures as [`BenchError::Build`]
    /// (defensive — validation already covers the builder's checks).
    pub fn lower(&self, cells: &CellLibrary) -> Result<LoweredNetlist, BenchError> {
        let mut net = Network::new();
        let mut id_of: HashMap<&str, SignalId> = HashMap::new();
        let mut inputs = Vec::with_capacity(self.inputs.len());
        for name in &self.inputs {
            let id = net.add_input(name)?;
            id_of.insert(name, id);
            inputs.push(id);
        }
        for &gi in &self.topo {
            let g = &self.gates[gi];
            let ops: Vec<SignalId> = g.inputs.iter().map(|op| id_of[op.as_str()]).collect();
            let id = lower_gate(&mut net, cells, &g.output, g.func, &ops)?;
            id_of.insert(&g.output, id);
        }
        let outputs = self.outputs.iter().map(|o| id_of[o.as_str()]).collect();
        Ok(LoweredNetlist {
            net,
            inputs,
            outputs,
        })
    }

    /// Exact post-lowering size of this netlist — the signal count
    /// [`BenchNetlist::lower`] will produce — computed *without*
    /// building anything, so callers (the `A007`
    /// pre-flight lint) can predict
    /// [`mis_digital::SimError::NetworkTooLarge`] before
    /// [`crate::Simulator::new`] allocates. Counts saturate instead of
    /// wrapping, which keeps the comparison against
    /// [`crate::ENGINE_INDEX_MAX`] meaningful even for absurd inputs.
    ///
    /// Per `.bench` gate of fan-in `n`, lowering emits: `n − 1` two-input
    /// gates for `AND`/`OR`/`XOR`/`NAND`/`NOR` (a balanced zero-time tree
    /// with the timed cell at the root), `n − 1` two-input gates plus a
    /// unary root for `XNOR`, and one unary gate for `NOT`/`BUFF`.
    #[must_use]
    pub fn lowered_stats(&self) -> LoweredStats {
        let mut signals = self.inputs.len();
        for g in &self.gates {
            let n = g.inputs.len();
            let (binary, unary) = match g.func {
                BenchFunc::Not | BenchFunc::Buff => (0, 1),
                BenchFunc::Xnor => (n - 1, 1),
                _ => (n - 1, 0),
            };
            signals = signals.saturating_add(binary + unary);
        }
        LoweredStats { signals }
    }
}

/// The exact size [`BenchNetlist::lower`] produces, predicted by
/// [`BenchNetlist::lowered_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweredStats {
    /// Total signal count of the lowered [`Network`] (primary inputs,
    /// reduction-tree temporaries, and cell roots).
    pub signals: usize,
}

/// Lowers one `.bench` gate: a zero-time balanced reduction tree with the
/// timed cell at the root.
fn lower_gate(
    net: &mut Network,
    cells: &CellLibrary,
    name: &str,
    func: BenchFunc,
    ops: &[SignalId],
) -> Result<SignalId, BenchError> {
    let id = match func {
        BenchFunc::Not => cells.add_unary(net, name, GateKind::Not, ops[0])?,
        BenchFunc::Buff => cells.add_unary(net, name, GateKind::Buf, ops[0])?,
        BenchFunc::And | BenchFunc::Or | BenchFunc::Xor => {
            let kind = match func {
                BenchFunc::And => GateKind::And,
                BenchFunc::Or => GateKind::Or,
                _ => GateKind::Xor,
            };
            let mid = ops.len() / 2;
            let mut counter = 0;
            let left = reduce_ideal(net, name, kind, &ops[..mid], &mut counter)?;
            let right = reduce_ideal(net, name, kind, &ops[mid..], &mut counter)?;
            cells.add(net, name, kind, left, right)?
        }
        BenchFunc::Nand | BenchFunc::Nor => {
            // The inverting cell sits at the root; its fan-in halves are
            // reduced with the *non-inverted* function (AND under NAND,
            // OR under NOR) so the overall Boolean function is exact.
            let (inner, root) = if func == BenchFunc::Nand {
                (GateKind::And, GateKind::Nand)
            } else {
                (GateKind::Or, GateKind::Nor)
            };
            let mid = ops.len() / 2;
            let mut counter = 0;
            let left = reduce_ideal(net, name, inner, &ops[..mid], &mut counter)?;
            let right = reduce_ideal(net, name, inner, &ops[mid..], &mut counter)?;
            cells.add(net, name, root, left, right)?
        }
        BenchFunc::Xnor => {
            let mut counter = 0;
            let parity = reduce_ideal(net, name, GateKind::Xor, ops, &mut counter)?;
            cells.add_unary(net, name, GateKind::Not, parity)?
        }
    };
    Ok(id)
}

/// Reduces `ops` to one signal through a balanced tree of zero-time
/// `kind` gates (a single operand passes through untouched). Temporary
/// signals are named `<name>#t<k>`.
fn reduce_ideal(
    net: &mut Network,
    name: &str,
    kind: GateKind,
    ops: &[SignalId],
    counter: &mut usize,
) -> Result<SignalId, BenchError> {
    Ok(match ops {
        [] => unreachable!("arity checked at parse time"),
        [one] => *one,
        [a, b] => net.add_gate(&tmp_name(name, counter), kind, &[*a, *b], None)?,
        _ => {
            let mid = ops.len() / 2;
            let left = reduce_ideal(net, name, kind, &ops[..mid], counter)?;
            let right = reduce_ideal(net, name, kind, &ops[mid..], counter)?;
            net.add_gate(&tmp_name(name, counter), kind, &[left, right], None)?
        }
    })
}

fn tmp_name(name: &str, counter: &mut usize) -> String {
    let n = format!("{name}#t{counter}");
    *counter += 1;
    n
}

/// Splits `NAME ( a , b )` into the name and its operand list. Rejects
/// missing/mismatched parentheses, empty operands, and garbage after the
/// closing parenthesis.
fn parse_call(line: usize, code: &str) -> Result<(&str, Vec<&str>), BenchError> {
    let open = code.find('(').ok_or_else(|| BenchError::Syntax {
        line,
        reason: format!("expected '(' in '{code}'"),
    })?;
    let name = code[..open].trim();
    check_signal_name(line, name)?;
    let rest = &code[open + 1..];
    let close = rest.rfind(')').ok_or_else(|| BenchError::Syntax {
        line,
        reason: "missing ')'".into(),
    })?;
    if !rest[close + 1..].trim().is_empty() {
        return Err(BenchError::Syntax {
            line,
            reason: format!("unexpected trailing text '{}'", rest[close + 1..].trim()),
        });
    }
    let body = rest[..close].trim();
    if body.is_empty() {
        return Err(BenchError::Syntax {
            line,
            reason: "empty operand list".into(),
        });
    }
    let mut args = Vec::new();
    for op in body.split(',') {
        let op = op.trim();
        check_signal_name(line, op)?;
        args.push(op);
    }
    Ok((name, args))
}

/// Signal names: non-empty, no whitespace, none of the structural
/// characters `( ) , = #`.
fn check_signal_name(line: usize, name: &str) -> Result<(), BenchError> {
    if name.is_empty() {
        return Err(BenchError::Syntax {
            line,
            reason: "empty signal name".into(),
        });
    }
    if let Some(bad) = name
        .chars()
        .find(|c| c.is_whitespace() || "(),=#".contains(*c))
    {
        return Err(BenchError::Syntax {
            line,
            reason: format!("invalid character '{bad}' in signal name '{name}'"),
        });
    }
    Ok(())
}

fn check_arity(line: usize, func: BenchFunc, count: usize) -> Result<(), BenchError> {
    let ok = if func.is_unary() {
        count == 1
    } else {
        count >= 2
    };
    if ok {
        Ok(())
    } else {
        Err(BenchError::BadArity {
            line,
            function: func.name().to_owned(),
            count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_waveform::DigitalTrace;

    const C17: &str = "
        # c17 cut
        INPUT(1)
        INPUT(2)
        INPUT(3)
        INPUT(6)
        INPUT(7)
        OUTPUT(22)
        OUTPUT(23)
        10 = NAND(1, 3)
        11 = NAND(3, 6)
        16 = NAND(2, 11)
        19 = NAND(11, 7)
        22 = NAND(10, 16)
        23 = NAND(16, 19)
    ";

    #[test]
    fn parses_c17_and_round_trips() {
        let nl = BenchNetlist::parse(C17).unwrap();
        assert_eq!(nl.inputs().len(), 5);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.gates().len(), 6);
        let again = BenchNetlist::parse(&nl.to_text()).unwrap();
        assert_eq!(nl, again);
    }

    #[test]
    fn forward_references_are_legal_and_lower_correctly() {
        // Gate `y` references `z`, defined later in the file.
        let nl = BenchNetlist::parse("INPUT(a)\nOUTPUT(y)\ny = NOT(z)\nz = BUFF(a)").unwrap();
        let lowered = nl.lower(&CellLibrary::ideal()).unwrap();
        let traces = lowered.net.run(&[DigitalTrace::constant(true)]).unwrap();
        assert!(!traces[lowered.outputs[0].index()].initial_value());
    }

    #[test]
    fn wide_gates_reduce_to_exact_boolean_functions() {
        let nl = BenchNetlist::parse(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\n\
             OUTPUT(w)\nOUTPUT(x)\nOUTPUT(y)\nOUTPUT(z)\n\
             w = NAND(a, b, c, d, e)\n\
             x = NOR(a, b, c)\n\
             y = XOR(a, b, c, d)\n\
             z = XNOR(a, b, c)",
        )
        .unwrap();
        let cells = CellLibrary::ideal();
        let lowered = nl.lower(&cells).unwrap();
        for bits in 0..32u32 {
            let vals: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            let inputs: Vec<DigitalTrace> =
                vals.iter().map(|&v| DigitalTrace::constant(v)).collect();
            let traces = lowered.net.run(&inputs).unwrap();
            let get = |k: usize| traces[lowered.outputs[k].index()].initial_value();
            assert_eq!(get(0), !vals.iter().all(|&v| v), "NAND5 {bits:05b}");
            assert_eq!(get(1), !vals[..3].iter().any(|&v| v), "NOR3 {bits:05b}");
            let par4 = vals[..4].iter().filter(|&&v| v).count() % 2 == 1;
            assert_eq!(get(2), par4, "XOR4 {bits:05b}");
            let par3 = vals[..3].iter().filter(|&&v| v).count() % 2 == 1;
            assert_eq!(get(3), !par3, "XNOR3 {bits:05b}");
        }
    }

    #[test]
    fn comment_and_whitespace_torture() {
        let nl = BenchNetlist::parse(
            "\t # leading comment\n\
             \n\
             input( a )# trailing\n\
             INPUT(b)\n\
             output(y)\n\
             y   =   nand (  a ,\tb )   # gate\n",
        )
        .unwrap();
        assert_eq!(nl.inputs(), ["a", "b"]);
        assert_eq!(nl.outputs(), ["y"]);
        assert_eq!(nl.gates()[0].func, BenchFunc::Nand);
    }

    #[test]
    fn programmatic_constructor_rejects_unserializable_names() {
        // `to_text` guarantees its output re-parses to an equal netlist;
        // `new` must therefore reject names the text form cannot carry
        // (whitespace splits tokens, '#' starts a comment, '(),=' are
        // structural — and '#' also guards the lowering's temp names).
        for bad in ["y z", "a#b", "p(q", "", "a,b", "x=y"] {
            let r = BenchNetlist::new(
                vec!["a".into()],
                vec![],
                vec![BenchGate {
                    output: bad.to_owned(),
                    func: BenchFunc::Not,
                    inputs: vec!["a".into()],
                }],
            );
            assert!(
                matches!(r, Err(BenchError::Syntax { .. })),
                "name {bad:?} must be rejected, got {r:?}"
            );
        }
    }

    #[test]
    fn crlf_and_bom_parse_like_bare_newlines() {
        let plain = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";
        let windows = "\u{FEFF}INPUT(a)\r\nINPUT(b)\r\nOUTPUT(y)\r\ny = NAND(a, b)\r\n";
        assert_eq!(
            BenchNetlist::parse(windows).unwrap(),
            BenchNetlist::parse(plain).unwrap()
        );
        // A BOM with no following newline convention still parses, and a
        // file ending in a bare `\r` (no final newline) does too.
        let stub = "\u{FEFF}INPUT(a)\ny = NOT(a)\r";
        assert_eq!(BenchNetlist::parse(stub).unwrap().gates().len(), 1);
    }

    #[test]
    fn errors_carry_real_source_lines() {
        // Duplicate: reported at the *second* occurrence.
        match BenchNetlist::parse("INPUT(a)\n\nINPUT(a)").unwrap_err() {
            BenchError::Duplicate { line, name } => {
                assert_eq!((line, name.as_str()), (3, "a"));
            }
            other => panic!("expected Duplicate, got {other:?}"),
        }
        match BenchNetlist::parse("INPUT(a)\ny = NOT(a)\n# pad\ny = BUFF(a)").unwrap_err() {
            BenchError::Duplicate { line, name } => {
                assert_eq!((line, name.as_str()), (4, "y"));
            }
            other => panic!("expected Duplicate, got {other:?}"),
        }
        // BadArity and Syntax: the offending definition's line.
        match BenchNetlist::parse("INPUT(a)\n\ny = NOT(a, a)").unwrap_err() {
            BenchError::BadArity { line, .. } => assert_eq!(line, 3),
            other => panic!("expected BadArity, got {other:?}"),
        }
        match BenchNetlist::parse("INPUT(a)\ny = NOT(a) trailing").unwrap_err() {
            BenchError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Syntax, got {other:?}"),
        }
        // Undefined: the first referencing line (here the OUTPUT
        // declaration precedes the gate that also references it).
        match BenchNetlist::parse("INPUT(a)\nOUTPUT(ghost)\ny = NAND(a, ghost)").unwrap_err() {
            BenchError::Undefined { line, name } => {
                assert_eq!((line, name.as_str()), (2, "ghost"));
            }
            other => panic!("expected Undefined, got {other:?}"),
        }
        // Cycle: a gate definition on the cycle.
        match BenchNetlist::parse("INPUT(a)\nx = NAND(a, y)\ny = NAND(a, x)").unwrap_err() {
            BenchError::Cycle { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Cycle, got {other:?}"),
        }
    }

    #[test]
    fn spans_track_declarations_and_survive_cloning() {
        let nl = BenchNetlist::parse(C17).unwrap();
        assert_eq!(nl.input_lines(), [3, 4, 5, 6, 7]);
        assert_eq!(nl.output_lines(), [8, 9]);
        assert_eq!(nl.gate_lines(), [10, 11, 12, 13, 14, 15]);
        // Spans are provenance, not content: the round-tripped netlist
        // compares equal even though the writer re-flowed every line.
        let again = BenchNetlist::parse(&nl.to_text()).unwrap();
        assert_eq!(nl, again);
        assert_ne!(nl.input_lines(), again.input_lines());
        // Programmatic netlists carry zero spans.
        let built = BenchNetlist::new(
            nl.inputs().to_vec(),
            nl.outputs().to_vec(),
            nl.gates().to_vec(),
        )
        .unwrap();
        assert_eq!(built, nl);
        assert!(built.input_lines().iter().all(|&l| l == 0));
        assert!(built.gate_lines().iter().all(|&l| l == 0));
    }

    #[test]
    fn lowered_stats_match_lowering_exactly() {
        for src in [
            C17,
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\n\
             OUTPUT(w)\nOUTPUT(x)\nOUTPUT(y)\nOUTPUT(z)\n\
             w = NAND(a, b, c, d, e)\n\
             x = NOR(a, b, c)\n\
             y = XOR(a, b, c, d)\n\
             z = XNOR(a, b, c)",
            "INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = BUFF(n)",
        ] {
            let nl = BenchNetlist::parse(src).unwrap();
            let stats = nl.lowered_stats();
            let lowered = nl.lower(&CellLibrary::ideal()).unwrap();
            assert_eq!(stats.signals, lowered.net.signal_count(), "{src:?}");
        }
    }

    #[test]
    fn buf_synonym_and_canonical_writer() {
        let nl = BenchNetlist::parse("INPUT(a)\nOUTPUT(y)\ny = BUF(a)").unwrap();
        assert_eq!(nl.gates()[0].func, BenchFunc::Buff);
        assert!(nl.to_text().contains("y = BUFF(a)"));
    }
}
