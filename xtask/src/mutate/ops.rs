//! The jetmut operator set: small, mostly type-preserving source edits
//! drawn from this codebase's real bug classes (DESIGN.md §18).
//!
//! Every matcher works on the jetlint *code* token stream (comments and
//! string literals are separate token kinds), so an operator symbol
//! inside a string or a comment can never become a mutation site — the
//! same soundness property the lints inherit from the lexer. Matchers
//! over-approximate deliberately: a token pattern that looks like a
//! comparison but is really a generic-argument bracket produces a mutant
//! that fails to compile, which the runner classifies `unviable` and
//! excludes from the score denominator. The compiler is the precise
//! disambiguator; discovery only has to be cheap and deterministic.

use crate::lex::TokenKind;
use crate::parse::KEYWORDS;
use crate::SourceFile;

/// One operator family, for `MUTATION.json` and the DESIGN.md §18 table.
pub struct OpInfo {
    /// Stable operator id, embedded in mutant ids.
    pub id: &'static str,
    /// What the operator rewrites.
    pub description: &'static str,
}

/// Every operator family, in report order.
pub const OPERATORS: [OpInfo; 12] = [
    OpInfo {
        id: "cmp-boundary", description: "comparison boundary flip: `<` ↔ `<=`, `>` ↔ `>=`"
    },
    OpInfo {
        id: "arith-swap",
        description: "arithmetic swap: `+` ↔ `-`, `*` ↔ `/` (compound too)",
    },
    OpInfo { id: "range-flip", description: "range flip: `..` ↔ `..=`" },
    OpInfo { id: "logic-swap", description: "short-circuit swap: `&&` ↔ `||`" },
    OpInfo { id: "negate-drop", description: "deletion of a logical/bitwise `!`" },
    OpInfo { id: "minmax-swap", description: "aggregation swap: `min(` ↔ `max(`" },
    OpInfo { id: "bitop-swap", description: "bit-op swap: binary `&` ↔ `|`, `&=` ↔ `|=`" },
    OpInfo { id: "shift-swap", description: "shift direction swap: `<<` ↔ `>>`" },
    OpInfo { id: "const-01", description: "integer literal off-by-one: `0` ↔ `1`" },
    OpInfo { id: "len-off-by-one", description: "`.len()` → `.len().wrapping_add(1)`" },
    OpInfo { id: "flow-drop", description: "bare `return;` deletion, `continue;` ↔ `break;`" },
    OpInfo {
        id: "delete-strategy-swap",
        description: "`DeleteStrategy::{Tag,Vap,Dap}` cyclic swap (kernel reset guard)",
    },
];

/// One concrete mutation site before id assignment: replace the byte span
/// `start..end` (whose current text is `orig`) with `repl`.
pub(crate) struct Candidate {
    /// Operator family id (one of [`OPERATORS`]).
    pub op: &'static str,
    /// Byte offset of the first mutated byte.
    pub start: usize,
    /// Byte offset one past the last mutated byte.
    pub end: usize,
    /// 1-based source line of the site.
    pub line: usize,
    /// The original spanned text.
    pub orig: String,
    /// The replacement text (empty for deletions).
    pub repl: String,
}

/// Keywords that can never end or begin an operand expression; an
/// operator token next to one is punctuation of the grammar (generics,
/// bounds, patterns), not an arithmetic/comparison site.
const NON_OPERAND_KEYWORDS: [&str; 31] = [
    "if", "else", "match", "for", "while", "loop", "let", "fn", "impl", "trait", "struct", "enum",
    "mod", "use", "pub", "where", "in", "as", "ref", "move", "dyn", "mut", "crate", "super",
    "unsafe", "static", "const", "type", "return", "break", "continue",
];

/// True when code token `i` can end an operand: an identifier (not a
/// grammar keyword), a number, or a closing `)` / `]`.
fn operand_end(f: &SourceFile<'_>, i: usize) -> bool {
    if i >= f.code.len() {
        return false;
    }
    match f.ct(i).kind {
        TokenKind::Ident => !NON_OPERAND_KEYWORDS.contains(&f.ctext(i)),
        TokenKind::Number => true,
        TokenKind::Punct => matches!(f.ctext(i), ")" | "]"),
        _ => false,
    }
}

/// True when code token `i` can begin an operand: an identifier, a
/// number, an opening `(`, or a `!`-negated expression.
fn operand_start(f: &SourceFile<'_>, i: usize) -> bool {
    if i >= f.code.len() {
        return false;
    }
    match f.ct(i).kind {
        TokenKind::Ident => !NON_OPERAND_KEYWORDS.contains(&f.ctext(i)),
        TokenKind::Number => true,
        TokenKind::Punct => matches!(f.ctext(i), "(" | "!"),
        _ => false,
    }
}

/// True when code tokens `i` and `j` abut with no whitespace between
/// them — how multi-byte operators (`<=`, `..`, `&&`, `<<`) appear in the
/// single-byte-punct token stream.
fn adjacent(f: &SourceFile<'_>, i: usize, j: usize) -> bool {
    j < f.code.len() && f.ct(i).end == f.ct(j).start
}

/// True when the code token after `i` (index `j = i + 1`) is the
/// punctuation `p` and abuts token `i`.
fn punct_adj(f: &SourceFile<'_>, i: usize, j: usize, p: &str) -> bool {
    f.is_punct(j, p) && adjacent(f, i, j)
}

/// True when the code token before `ci` is the punctuation `p` and abuts
/// it — i.e. `ci` is the second byte of a two-byte operator.
fn prev_punct_adj(f: &SourceFile<'_>, ci: usize, p: &str) -> bool {
    ci > 0 && f.is_punct(ci - 1, p) && adjacent(f, ci - 1, ci)
}

/// True when code token `i` is an identifier starting with an uppercase
/// letter — the heuristic for "this is a type name, so the `<` after it
/// opens generics".
fn type_like(f: &SourceFile<'_>, i: usize) -> bool {
    i < f.code.len()
        && f.ct(i).kind == TokenKind::Ident
        && f.ctext(i).starts_with(|c: char| c.is_ascii_uppercase())
}

/// True when code token `i` names a type or trait: an uppercase
/// identifier that is one letter (`W`) or has a lowercase one after
/// (`Default`) — where `type_like` also takes a SCREAMING_CASE constant.
fn type_name(f: &SourceFile<'_>, i: usize) -> bool {
    type_like(f, i) && (f.ctext(i).len() == 1 || f.ctext(i).bytes().any(|b| b.is_ascii_lowercase()))
}

/// True when the `..` at code token `ci` opens the base of a functional
/// struct update (`S { a, ..base }`): it follows `{` or `,`, and the
/// expression after it runs to a closing `}` with no `,` or `;` between.
fn functional_update(f: &SourceFile<'_>, ci: usize) -> bool {
    if ci == 0 || !(f.is_punct(ci - 1, ",") || f.is_punct(ci - 1, "{")) {
        return false;
    }
    let mut depth = 0usize;
    for i in ci + 2..f.code.len() {
        if f.ct(i).kind != TokenKind::Punct {
            continue;
        }
        match f.ctext(i) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth > 0 => depth -= 1,
            "}" => return true,
            ")" | "]" => return false,
            "," | ";" if depth == 0 => return false,
            _ => {}
        }
    }
    false
}

/// True when the `|` at code token `ci` closes a closure's parameter
/// list (`|dest, lo, run| body`): walking back at its nesting depth, the
/// first `|` met opens the list — it follows no operand — before any `;`,
/// brace or unmatched opening bracket ends the expression. A `|` that
/// follows an operand is itself a closing pipe or a bit-or (`|x| a | b`),
/// and a `||` opens a closure without parameters or is a logical or, so
/// after either the one at `ci` is a bit-or.
fn closes_closure_params(f: &SourceFile<'_>, ci: usize) -> bool {
    let mut depth = 0usize;
    for i in (0..ci).rev() {
        if f.ct(i).kind != TokenKind::Punct {
            continue;
        }
        match f.ctext(i) {
            ")" | "]" => depth += 1,
            "(" | "[" if depth > 0 => depth -= 1,
            "(" | "[" | "{" | "}" | ";" => return false,
            // A `||` takes no parameters, so nothing after it closes any.
            "|" if depth == 0 && (prev_punct_adj(f, i, "|") || punct_adj(f, i, i + 1, "|")) => {
                return false
            }
            "|" if depth == 0 => return i == 0 || !operand_end(f, i - 1),
            _ => {}
        }
    }
    false
}

/// Runs every operator matcher against code token `ci`, appending any
/// candidate mutations. The caller filters `#[cfg(test)]` spans.
pub(crate) fn match_at(f: &SourceFile<'_>, ci: usize, out: &mut Vec<Candidate>) {
    match f.ct(ci).kind {
        TokenKind::Punct => match_punct(f, ci, out),
        TokenKind::Ident => match_ident(f, ci, out),
        TokenKind::Number => match_number(f, ci, out),
        _ => {}
    }
}

fn cand(
    f: &SourceFile<'_>,
    op: &'static str,
    ci: usize,
    start: usize,
    end: usize,
    repl: &str,
) -> Candidate {
    Candidate {
        op,
        start,
        end,
        line: f.ct(ci).line,
        orig: f.text[start..end].to_string(),
        repl: repl.to_string(),
    }
}

fn match_punct(f: &SourceFile<'_>, ci: usize, out: &mut Vec<Candidate>) {
    let tok = *f.ct(ci);
    let prev = ci.checked_sub(1);
    let prev_end = prev.is_some_and(|p| operand_end(f, p));
    match f.ctext(ci) {
        "<" | ">" => {
            let (this, widened, shifted) =
                if f.ctext(ci) == "<" { ("<", "<=", ">>") } else { (">", ">=", "<<") };
            // Mid-sequence of `<<` / `>>`: the first byte already matched.
            if prev_punct_adj(f, ci, this) {
                return;
            }
            if punct_adj(f, ci, ci + 1, this) {
                // `<<` / `>>` (or `<<=` / `>>=`): swap the direction.
                let assign = punct_adj(f, ci + 1, ci + 2, "=");
                if prev_end && (assign || operand_start(f, ci + 2)) {
                    out.push(cand(f, "shift-swap", ci, tok.start, f.ct(ci + 1).end, shifted));
                }
                return;
            }
            if punct_adj(f, ci, ci + 1, "=") {
                // `<=` / `>=` → `<` / `>`.
                if prev_end && operand_start(f, ci + 2) {
                    out.push(cand(f, "cmp-boundary", ci, tok.start, f.ct(ci + 1).end, this));
                }
                return;
            }
            // Bare `<` / `>` → `<=` / `>=`. For `<`, a preceding type name
            // or a generic parameter list (`fn f<T>`) opens generics.
            if this == "<"
                && (prev.is_some_and(|p| type_like(f, p)) || ci >= 2 && f.is_ident(ci - 2, "fn"))
            {
                return;
            }
            if prev_end && operand_start(f, ci + 1) {
                out.push(cand(f, "cmp-boundary", ci, tok.start, tok.end, widened));
            }
        }
        "+" | "-" | "*" | "/" => {
            let repl = match f.ctext(ci) {
                "+" => "-",
                "-" => "+",
                "*" => "/",
                _ => "*",
            };
            if punct_adj(f, ci, ci + 1, ">") {
                return; // `->`
            }
            if !prev_end {
                return; // unary / deref / grammar position
            }
            // `W: Copy + Default`: a `+` between two type names joins
            // trait bounds (a type name followed by `::` starts a path
            // operand, `a + Weight::MAX`).
            let bound = prev.is_some_and(|p| type_name(f, p))
                && type_name(f, ci + 1)
                && !f.is_punct(ci + 2, ":");
            if f.ctext(ci) == "+" && bound {
                return;
            }
            let compound = punct_adj(f, ci, ci + 1, "=");
            let rhs = if compound { ci + 2 } else { ci + 1 };
            if operand_start(f, rhs) {
                out.push(cand(f, "arith-swap", ci, tok.start, tok.end, repl));
            }
        }
        "." => {
            // Second dot of a `..` pair: already matched at the first.
            if prev_punct_adj(f, ci, ".") {
                return;
            }
            if !punct_adj(f, ci, ci + 1, ".") || punct_adj(f, ci + 1, ci + 2, ".") {
                return;
            }
            if punct_adj(f, ci + 1, ci + 2, "=") {
                // `..=` → `..`
                out.push(cand(f, "range-flip", ci, tok.start, f.ct(ci + 2).end, ".."));
            } else if operand_start(f, ci + 2) && !type_like(f, ci + 2) && !functional_update(f, ci)
            {
                // `..` → `..=` (an uppercase successor is `..Struct { }`
                // functional update, not a range end; so is a lowercase
                // base running to the literal's `}`).
                out.push(cand(f, "range-flip", ci, tok.start, f.ct(ci + 1).end, "..="));
            }
        }
        "&" | "|" => {
            let (this, other, logic) =
                if f.ctext(ci) == "&" { ("&", "|", "||") } else { ("|", "&", "&&") };
            if prev_punct_adj(f, ci, this) {
                return; // second byte of `&&` / `||`
            }
            if punct_adj(f, ci, ci + 1, this) {
                if prev_end && operand_start(f, ci + 2) {
                    out.push(cand(f, "logic-swap", ci, tok.start, f.ct(ci + 1).end, logic));
                }
                return;
            }
            if !prev_end || closes_closure_params(f, ci) {
                return; // reference / closure-params / pattern position
            }
            let compound = punct_adj(f, ci, ci + 1, "=");
            let rhs = if compound { ci + 2 } else { ci + 1 };
            // `a & mut ..` cannot parse, so a following `mut` means this
            // `&` takes a reference after all (`a as &mut T` shapes).
            if operand_start(f, rhs) && !f.is_ident(rhs, "mut") {
                out.push(cand(f, "bitop-swap", ci, tok.start, tok.end, other));
            }
        }
        "!" => {
            // `name!(..)` macro bangs, `#![..]` attrs, and `!=` are not
            // negations; a keyword before the bang (`if !c`, `return !x`)
            // names no macro.
            let macro_name = prev.is_some_and(|p| {
                f.ct(p).kind == TokenKind::Ident && !KEYWORDS.contains(&f.ctext(p))
            });
            let delimited = ["(", "[", "{"].iter().any(|d| f.is_punct(ci + 1, d));
            if (macro_name && delimited) || prev.is_some_and(|p| f.is_punct(p, "#")) {
                return;
            }
            if punct_adj(f, ci, ci + 1, "=") {
                return;
            }
            if operand_start(f, ci + 1) {
                out.push(cand(f, "negate-drop", ci, tok.start, tok.end, ""));
            }
        }
        _ => {}
    }
}

fn match_ident(f: &SourceFile<'_>, ci: usize, out: &mut Vec<Candidate>) {
    let tok = *f.ct(ci);
    let prev_is = |p: &str| ci > 0 && f.is_punct(ci - 1, p);
    match f.ctext(ci) {
        name @ ("min" | "max") if (prev_is(".") || prev_is(":")) && f.is_punct(ci + 1, "(") => {
            let repl = if name == "min" { "max" } else { "min" };
            out.push(cand(f, "minmax-swap", ci, tok.start, tok.end, repl));
        }
        "len" if prev_is(".") && f.is_punct(ci + 1, "(") && f.is_punct(ci + 2, ")") => {
            out.push(cand(
                f,
                "len-off-by-one",
                ci,
                tok.start,
                f.ct(ci + 2).end,
                "len().wrapping_add(1)",
            ));
        }
        "return" if f.is_punct(ci + 1, ";") => {
            out.push(cand(f, "flow-drop", ci, tok.start, tok.end, ""));
        }
        kw @ ("continue" | "break") if f.is_punct(ci + 1, ";") => {
            let repl = if kw == "continue" { "break" } else { "continue" };
            out.push(cand(f, "flow-drop", ci, tok.start, tok.end, repl));
        }
        v @ ("Tag" | "Vap" | "Dap")
            if ci >= 3
                && f.is_punct(ci - 1, ":")
                && f.is_punct(ci - 2, ":")
                && f.is_ident(ci - 3, "DeleteStrategy") =>
        {
            let repl = match v {
                "Tag" => "Vap",
                "Vap" => "Dap",
                _ => "Tag",
            };
            out.push(cand(f, "delete-strategy-swap", ci, tok.start, tok.end, repl));
        }
        _ => {}
    }
}

fn match_number(f: &SourceFile<'_>, ci: usize, out: &mut Vec<Candidate>) {
    let tok = *f.ct(ci);
    let text = f.ctext(ci);
    // Exactly `0` or `1`, optionally with an integer suffix. A leading
    // `x`/`b`/`o`/`e`/`.` in the remainder means hex/binary/octal/float —
    // out of the operator's off-by-one shape.
    let Some(first) = text.chars().next() else { return };
    if first != '0' && first != '1' {
        return;
    }
    let suffix = &text[1..];
    if !(suffix.is_empty() || suffix.starts_with('u') || suffix.starts_with('i')) {
        return;
    }
    // `x.0` tuple fields (and `0` as a float's fractional part can't
    // occur: the lexer keeps floats whole).
    if ci > 0 && f.is_punct(ci - 1, ".") {
        return;
    }
    let repl = format!("{}{}", if first == '0' { '1' } else { '0' }, suffix);
    out.push(cand(f, "const-01", ci, tok.start, tok.end, &repl));
}
