//! A lightweight item-level Rust parser on top of [`crate::lexer`].
//!
//! This is deliberately **not** a full AST: it recovers just the item
//! skeleton the semantic rules need — which items exist (structs, enums,
//! fns, mods, traits, impls, consts, type aliases, `use` declarations),
//! whether each is bare `pub`, where each one starts and ends (line
//! spans), the named fields of structs (name + type text), and the type
//! text of consts. Function bodies stay opaque token spans; rules
//! that care about references inside a body slice the stripped lines by
//! the recorded span and pattern-match there.
//!
//! The input is the comment/string-stripped text from [`lexer::strip`],
//! so the parser never sees a brace or keyword inside a literal. It is
//! resilient by construction: anything it does not recognize is skipped
//! token by token, and unbalanced input simply truncates spans at
//! end-of-file — a linter must not crash on the code it inspects.

/// What kind of item a [`Item`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `struct Name { .. }` / tuple / unit struct.
    Struct,
    /// `enum Name { .. }`.
    Enum,
    /// `union Name { .. }`.
    Union,
    /// `fn name(..) { .. }` (including `const fn`, `unsafe fn`, methods).
    Fn,
    /// `mod name { .. }` or `mod name;`.
    Mod,
    /// `trait Name { .. }`.
    Trait,
    /// `impl Type { .. }` / `impl Trait for Type { .. }`.
    Impl,
    /// `const NAME: Ty = ..;` (associated or free).
    Const,
    /// `static NAME: Ty = ..;`.
    Static,
    /// `extern "C" { .. }` foreign block.
    ExternBlock,
    /// `type Name = ..;` (free or associated).
    TypeAlias,
    /// `use ..;` declaration; the name is empty.
    Use,
}

/// One named field of a struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Type text, tokens joined by single spaces (e.g. `Vec < Asn >`
    /// normalizes to `Vec<Asn>` via [`base_type_ident`] when needed).
    pub ty: String,
    /// 1-based line of the field name.
    pub line: usize,
}

/// One parsed item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Item name. For [`ItemKind::Impl`] this is the header text between
    /// `impl` and the body (`Trait for Type`); empty when unnamed.
    pub name: String,
    /// 1-based line of the declaring keyword.
    pub line: usize,
    /// 1-based first line of the body (the line of `{`), or `line` for
    /// bodiless items (`mod x;`, trait method declarations).
    pub body_start: usize,
    /// 1-based line of the closing `}` (or the `;`).
    pub body_end: usize,
    /// For consts/statics: the declared type text.
    pub ty: String,
    /// For structs with named fields: the fields in declaration order.
    pub fields: Vec<Field>,
    /// Index (into the flat item list) of the enclosing mod/impl/trait,
    /// or `None` at file level.
    pub parent: Option<usize>,
    /// Declared with a bare `pub` (not `pub(crate)` or private).
    pub is_pub: bool,
}

/// The leading identifier of a type's final path segment, with
/// references, lifetimes and generics stripped: `&'a mut Vec<Asn>` →
/// `Vec`, `config::SanitizeConfig` → `SanitizeConfig`, `fn(&X) -> u64` →
/// `fn`. Empty for types that do not start with a path.
pub fn base_type_ident(ty: &str) -> &str {
    let mut rest = ty.trim();
    loop {
        let trimmed = rest.trim_start();
        if let Some(r) = trimmed.strip_prefix('&') {
            rest = r;
        } else if trimmed.starts_with('\'') {
            // Lifetime: skip the tick and its identifier.
            let after = &trimmed[1..];
            let end = after
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(after.len());
            rest = &after[end..];
        } else if let Some(r) = trimmed.strip_prefix("mut ") {
            rest = r;
        } else if let Some(r) = trimmed.strip_prefix("dyn ") {
            rest = r;
        } else {
            rest = trimmed;
            break;
        }
    }
    // Path up to the first generic/terminator, then its last segment.
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(rest.len());
    let path = &rest[..end];
    path.rsplit("::").next().unwrap_or(path)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Punct(char),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    /// 1-based line.
    line: usize,
}

fn tokenize(lines: &[String]) -> Vec<Token> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let ln = i + 1;
        let chars: Vec<char> = line.chars().collect();
        let mut j = 0usize;
        while j < chars.len() {
            let c = chars[j];
            if c.is_whitespace() {
                j += 1;
            } else if c.is_alphanumeric() || c == '_' {
                let start = j;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(chars[start..j].iter().collect()),
                    line: ln,
                });
            } else {
                out.push(Token {
                    tok: Tok::Punct(c),
                    line: ln,
                });
                j += 1;
            }
        }
    }
    out
}

/// Parse the items of one stripped source file (from
/// [`lexer::Stripped::lines`]). Items come back in source order,
/// children after their parent, with `parent` links for nesting.
pub fn parse_items(stripped_lines: &[String]) -> Vec<Item> {
    let tokens = tokenize(stripped_lines);
    let mut items = Vec::new();
    let mut pos = 0usize;
    parse_block(&tokens, &mut pos, None, &mut items);
    items
}

fn ident_at<'t>(tokens: &'t [Token], pos: usize) -> Option<&'t str> {
    match tokens.get(pos).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(tokens: &[Token], pos: usize) -> Option<char> {
    match tokens.get(pos).map(|t| &t.tok) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

fn line_at(tokens: &[Token], pos: usize) -> usize {
    tokens
        .get(pos.min(tokens.len().saturating_sub(1)))
        .map(|t| t.line)
        .unwrap_or(1)
}

/// Skip a balanced `open`..`close` region; `pos` must point at the
/// opening token. Leaves `pos` one past the closing token (or at EOF).
fn skip_balanced(tokens: &[Token], pos: &mut usize, open: char, close: char) {
    debug_assert_eq!(punct_at(tokens, *pos), Some(open));
    let mut depth = 0i32;
    while *pos < tokens.len() {
        match punct_at(tokens, *pos) {
            Some(c) if c == open => depth += 1,
            Some(c) if c == close => {
                depth -= 1;
                if depth == 0 {
                    *pos += 1;
                    return;
                }
            }
            _ => {}
        }
        *pos += 1;
    }
}

/// Skip to the `;` terminating a const/static/use item, tracking nesting
/// so a `;` inside an initializer block does not end the item early.
fn skip_to_semicolon(tokens: &[Token], pos: &mut usize) {
    let (mut braces, mut parens, mut brackets) = (0i32, 0i32, 0i32);
    while *pos < tokens.len() {
        match punct_at(tokens, *pos) {
            Some('{') => braces += 1,
            Some('}') => braces -= 1,
            Some('(') => parens += 1,
            Some(')') => parens -= 1,
            Some('[') => brackets += 1,
            Some(']') => brackets -= 1,
            Some(';') if braces <= 0 && parens <= 0 && brackets <= 0 => {
                *pos += 1;
                return;
            }
            _ => {}
        }
        *pos += 1;
    }
}

/// Advance to the body `{` (or terminating `;`) of a fn/struct/trait
/// header, ignoring braces-free signature punctuation. Returns `true`
/// when a `{` was found (pos points at it), `false` on `;`/EOF (pos one
/// past the `;`).
fn scan_to_body(tokens: &[Token], pos: &mut usize) -> bool {
    let mut parens = 0i32;
    while *pos < tokens.len() {
        match punct_at(tokens, *pos) {
            Some('(') => parens += 1,
            Some(')') => parens -= 1,
            Some('{') if parens <= 0 => return true,
            Some(';') if parens <= 0 => {
                *pos += 1;
                return false;
            }
            _ => {}
        }
        *pos += 1;
    }
    false
}

/// Capture type text from `pos` until an `=`/`;`/`,` at zero nesting.
/// Angle brackets are tracked so `Iterator<Item = u32>` keeps its `=`.
fn capture_type(tokens: &[Token], pos: &mut usize, extra_stop: char) -> String {
    let (mut angles, mut parens, mut brackets) = (0i32, 0i32, 0i32);
    let mut prev_minus = false;
    let mut text = String::new();
    while *pos < tokens.len() {
        match &tokens[*pos].tok {
            Tok::Punct(c) => {
                let c = *c;
                let nested = angles > 0 || parens > 0 || brackets > 0;
                if (c == '=' || c == ';' || c == extra_stop) && !nested {
                    break;
                }
                match c {
                    '<' => angles += 1,
                    '>' if prev_minus => {} // `->` in fn-pointer types
                    '>' if angles > 0 => angles -= 1,
                    '(' => parens += 1,
                    ')' if parens > 0 => parens -= 1,
                    ')' => break, // closing an outer scope (tuple struct etc.)
                    '[' => brackets += 1,
                    ']' if brackets > 0 => brackets -= 1,
                    ']' => break,
                    '}' if !nested => break,
                    _ => {}
                }
                prev_minus = c == '-';
                text.push(c);
            }
            Tok::Ident(s) => {
                prev_minus = false;
                if !text.is_empty() && text.ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                    text.push(' ');
                }
                text.push_str(s);
            }
        }
        *pos += 1;
    }
    text
}

/// Parse the named fields of a struct body; `pos` points at the opening
/// `{`. Leaves `pos` one past the matching `}`.
fn parse_struct_fields(tokens: &[Token], pos: &mut usize, end_line: &mut usize) -> Vec<Field> {
    let mut fields = Vec::new();
    *pos += 1; // past `{`
    loop {
        match punct_at(tokens, *pos) {
            Some('}') => {
                *end_line = line_at(tokens, *pos);
                *pos += 1;
                return fields;
            }
            Some('#') => {
                *pos += 1;
                if punct_at(tokens, *pos) == Some('[') {
                    skip_balanced(tokens, pos, '[', ']');
                }
                continue;
            }
            Some(',') => {
                *pos += 1;
                continue;
            }
            None if *pos >= tokens.len() => return fields,
            _ => {}
        }
        match ident_at(tokens, *pos) {
            Some("pub") => {
                *pos += 1;
                if punct_at(tokens, *pos) == Some('(') {
                    skip_balanced(tokens, pos, '(', ')');
                }
            }
            Some(name) => {
                let name = name.to_string();
                let line = line_at(tokens, *pos);
                *pos += 1;
                if punct_at(tokens, *pos) == Some(':') {
                    *pos += 1;
                    let ty = capture_type(tokens, pos, ',');
                    fields.push(Field { name, ty, line });
                }
                // Not followed by `:` — stray token, already advanced.
            }
            None => {
                *pos += 1; // unexpected punctuation; resynchronize
            }
        }
    }
}

/// Item-body modifiers that may precede a declaring keyword.
const MODIFIERS: &[&str] = &["pub", "unsafe", "async", "default", "crate"];

#[allow(clippy::too_many_lines)]
fn parse_block(
    tokens: &[Token],
    pos: &mut usize,
    parent: Option<usize>,
    items: &mut Vec<Item>,
) -> usize {
    let mut last_line = line_at(tokens, *pos);
    // Set by a bare `pub` and carried across the other modifiers to the
    // declaring keyword; any other token clears it.
    let mut pub_pending = false;
    while *pos < tokens.len() {
        last_line = tokens[*pos].line;
        let is_pub = std::mem::take(&mut pub_pending);
        match &tokens[*pos].tok {
            Tok::Punct('}') => return last_line, // caller consumes
            Tok::Punct('#') => {
                *pos += 1;
                if punct_at(tokens, *pos) == Some('!') {
                    *pos += 1;
                }
                if punct_at(tokens, *pos) == Some('[') {
                    skip_balanced(tokens, pos, '[', ']');
                }
            }
            Tok::Punct('{') => skip_balanced(tokens, pos, '{', '}'),
            Tok::Punct(_) => *pos += 1,
            Tok::Ident(word) => {
                let kw_line = tokens[*pos].line;
                match word.as_str() {
                    w if MODIFIERS.contains(&w) => {
                        *pos += 1;
                        pub_pending = is_pub || w == "pub";
                        if w == "pub" && punct_at(tokens, *pos) == Some('(') {
                            skip_balanced(tokens, pos, '(', ')');
                            pub_pending = false; // `pub(crate)` and kin
                        }
                    }
                    "extern" => {
                        *pos += 1;
                        // `extern "C" { .. }` (string already stripped) vs
                        // `extern crate x;` vs `extern "C" fn`.
                        match (punct_at(tokens, *pos), ident_at(tokens, *pos)) {
                            (Some('{'), _) => {
                                let body_start = line_at(tokens, *pos);
                                skip_balanced(tokens, pos, '{', '}');
                                items.push(Item {
                                    kind: ItemKind::ExternBlock,
                                    name: String::new(),
                                    line: kw_line,
                                    body_start,
                                    body_end: line_at(tokens, pos.saturating_sub(1)),
                                    ty: String::new(),
                                    fields: Vec::new(),
                                    parent,
                                    is_pub,
                                });
                            }
                            (_, Some("crate")) => skip_to_semicolon(tokens, pos),
                            // modifier position (`extern "C" fn`)
                            _ => pub_pending = is_pub,
                        }
                    }
                    "struct" | "enum" | "union" => {
                        let kind = match word.as_str() {
                            "struct" => ItemKind::Struct,
                            "enum" => ItemKind::Enum,
                            _ => ItemKind::Union,
                        };
                        *pos += 1;
                        let name = ident_at(tokens, *pos).unwrap_or("").to_string();
                        if !name.is_empty() {
                            *pos += 1;
                        }
                        if punct_at(tokens, *pos) == Some('<') {
                            skip_balanced(tokens, pos, '<', '>');
                        }
                        // Skip a `where` clause up to the body.
                        let mut body_start = kw_line;
                        let mut body_end = kw_line;
                        let mut fields = Vec::new();
                        if punct_at(tokens, *pos) == Some('(') {
                            // Tuple struct: no named fields.
                            skip_balanced(tokens, pos, '(', ')');
                            skip_to_semicolon(tokens, pos);
                            body_end = line_at(tokens, pos.saturating_sub(1));
                        } else if scan_to_body(tokens, pos) {
                            body_start = line_at(tokens, *pos);
                            if kind == ItemKind::Struct {
                                fields = parse_struct_fields(tokens, pos, &mut body_end);
                            } else {
                                skip_balanced(tokens, pos, '{', '}');
                                body_end = line_at(tokens, pos.saturating_sub(1));
                            }
                        } else {
                            body_end = line_at(tokens, pos.saturating_sub(1));
                        }
                        items.push(Item {
                            kind,
                            name,
                            line: kw_line,
                            body_start,
                            body_end,
                            ty: String::new(),
                            fields,
                            parent,
                            is_pub,
                        });
                    }
                    "fn" => {
                        *pos += 1;
                        let name = ident_at(tokens, *pos).unwrap_or("").to_string();
                        if !name.is_empty() {
                            *pos += 1;
                        }
                        let mut body_start = kw_line;
                        if scan_to_body(tokens, pos) {
                            body_start = line_at(tokens, *pos);
                            skip_balanced(tokens, pos, '{', '}');
                        }
                        let body_end = line_at(tokens, pos.saturating_sub(1));
                        items.push(Item {
                            kind: ItemKind::Fn,
                            name,
                            line: kw_line,
                            body_start,
                            body_end,
                            ty: String::new(),
                            fields: Vec::new(),
                            parent,
                            is_pub,
                        });
                    }
                    "mod" | "trait" | "impl" => {
                        let kind = match word.as_str() {
                            "mod" => ItemKind::Mod,
                            "trait" => ItemKind::Trait,
                            _ => ItemKind::Impl,
                        };
                        *pos += 1;
                        let name = if kind == ItemKind::Impl {
                            // Header text between `impl` and the body.
                            capture_type(tokens, pos, '{')
                        } else {
                            let n = ident_at(tokens, *pos).unwrap_or("").to_string();
                            if !n.is_empty() {
                                *pos += 1;
                            }
                            n
                        };
                        // `impl` in return/argument type position is not an
                        // item; it never reaches here because those tokens
                        // are consumed inside fn signature scans.
                        let idx = items.len();
                        items.push(Item {
                            kind,
                            name,
                            line: kw_line,
                            body_start: kw_line,
                            body_end: kw_line,
                            ty: String::new(),
                            fields: Vec::new(),
                            parent,
                            is_pub,
                        });
                        if scan_to_body(tokens, pos) {
                            items[idx].body_start = line_at(tokens, *pos);
                            *pos += 1; // past `{`
                            let end_line = parse_block(tokens, pos, Some(idx), items);
                            if punct_at(tokens, *pos) == Some('}') {
                                *pos += 1;
                            }
                            items[idx].body_end = end_line;
                        } else {
                            items[idx].body_end = line_at(tokens, pos.saturating_sub(1));
                        }
                    }
                    "const" | "static" => {
                        let kind = if word == "const" {
                            ItemKind::Const
                        } else {
                            ItemKind::Static
                        };
                        *pos += 1;
                        if ident_at(tokens, *pos) == Some("fn") {
                            pub_pending = is_pub;
                            continue; // `const fn` — handled by the fn arm
                        }
                        if ident_at(tokens, *pos) == Some("mut") {
                            *pos += 1;
                        }
                        let name = ident_at(tokens, *pos).unwrap_or("").to_string();
                        if !name.is_empty() {
                            *pos += 1;
                        }
                        let mut ty = String::new();
                        if punct_at(tokens, *pos) == Some(':') {
                            *pos += 1;
                            ty = capture_type(tokens, pos, ',');
                        }
                        skip_to_semicolon(tokens, pos);
                        items.push(Item {
                            kind,
                            name,
                            line: kw_line,
                            body_start: kw_line,
                            body_end: line_at(tokens, pos.saturating_sub(1)),
                            ty,
                            fields: Vec::new(),
                            parent,
                            is_pub,
                        });
                    }
                    "use" | "type" => {
                        let kind = if word == "use" {
                            ItemKind::Use
                        } else {
                            ItemKind::TypeAlias
                        };
                        *pos += 1;
                        let name = match (kind, ident_at(tokens, *pos)) {
                            (ItemKind::TypeAlias, Some(n)) => n.to_string(),
                            _ => String::new(),
                        };
                        skip_to_semicolon(tokens, pos);
                        items.push(Item {
                            kind,
                            name,
                            line: kw_line,
                            body_start: kw_line,
                            body_end: line_at(tokens, pos.saturating_sub(1)),
                            ty: String::new(),
                            fields: Vec::new(),
                            parent,
                            is_pub,
                        });
                    }
                    "macro_rules" => {
                        *pos += 1; // `!`, name, then a balanced body
                        while *pos < tokens.len() {
                            match punct_at(tokens, *pos) {
                                Some('{') => {
                                    skip_balanced(tokens, pos, '{', '}');
                                    break;
                                }
                                Some('(') => {
                                    skip_balanced(tokens, pos, '(', ')');
                                    break;
                                }
                                _ => *pos += 1,
                            }
                        }
                    }
                    _ => *pos += 1,
                }
            }
        }
    }
    last_line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn items(src: &str) -> Vec<Item> {
        parse_items(&lexer::strip(src).lines)
    }

    #[test]
    fn struct_fields_with_types() {
        let src = "\
pub struct Config {
    /// docs
    pub threshold: f64,
    pub table: HashMap<Asn, Vec<Ipv4Prefix>>,
    run: fn(&Env, &[Artifact]) -> Result<Artifact, EngineError>,
}
";
        let it = &items(src)[0];
        assert_eq!(it.kind, ItemKind::Struct);
        assert_eq!(it.name, "Config");
        let names: Vec<&str> = it.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["threshold", "table", "run"]);
        assert_eq!(it.fields[0].line, 3);
        assert_eq!(base_type_ident(&it.fields[1].ty), "HashMap");
        assert_eq!(base_type_ident(&it.fields[2].ty), "fn");
        assert_eq!(it.body_end, 6);
    }

    #[test]
    fn fn_body_spans() {
        let src = "\
fn a() -> u64 {
    let x = 1;
    x
}
pub const fn b() {}
";
        let its = items(src);
        assert_eq!(its[0].name, "a");
        assert_eq!((its[0].body_start, its[0].body_end), (1, 4));
        assert_eq!(its[1].name, "b");
        assert_eq!(its[1].kind, ItemKind::Fn);
    }

    #[test]
    fn nested_mod_and_consts() {
        let src = "\
pub mod kind {
    pub const SANITIZED: u16 = 1;
    pub const DEGREES: u16 = 2;
}
const TOP: usize = 3;
";
        let its = items(src);
        let m = its.iter().position(|i| i.kind == ItemKind::Mod).unwrap();
        assert_eq!(its[m].name, "kind");
        let consts: Vec<&Item> = its
            .iter()
            .filter(|i| i.kind == ItemKind::Const && i.parent == Some(m))
            .collect();
        assert_eq!(consts.len(), 2);
        assert_eq!(consts[0].name, "SANITIZED");
        assert_eq!(consts[0].ty, "u16");
        assert_eq!(consts[0].line, 2);
        let top = its.iter().find(|i| i.name == "TOP").unwrap();
        assert_eq!(top.parent, None);
    }

    #[test]
    fn impl_methods_have_parent() {
        let src = "\
impl Mapping {
    pub fn new(file: &File, len: usize) -> Option<Mapping> {
        None
    }
}
unsafe impl Send for Mapping {}
";
        let its = items(src);
        let im = its.iter().position(|i| i.kind == ItemKind::Impl).unwrap();
        let new = its.iter().find(|i| i.name == "new").unwrap();
        assert_eq!(new.parent, Some(im));
        let send: Vec<&Item> = its.iter().filter(|i| i.kind == ItemKind::Impl).collect();
        assert_eq!(send.len(), 2);
        assert!(send[1].name.contains("Send"));
    }

    #[test]
    fn static_with_slice_initializer() {
        let src = "\
static STAGES: &[StageSpec] = &[
    StageSpec { name: \"s1\", cfg_fp: fp_one },
];
fn after() {}
";
        let its = items(src);
        assert_eq!(its[0].kind, ItemKind::Static);
        assert_eq!(its[0].name, "STAGES");
        assert_eq!(its[1].name, "after");
    }

    #[test]
    fn tuple_and_unit_structs() {
        let src = "pub struct Asn(pub u32);\npub struct Marker;\nfn f() {}\n";
        let its = items(src);
        assert_eq!(its[0].name, "Asn");
        assert!(its[0].fields.is_empty());
        assert_eq!(its[1].name, "Marker");
        assert_eq!(its[2].name, "f");
    }

    #[test]
    fn base_type_ident_strips_refs_and_paths() {
        assert_eq!(base_type_ident("&'c InferenceConfig"), "InferenceConfig");
        assert_eq!(
            base_type_ident("crate::sanitize::SanitizeConfig"),
            "SanitizeConfig"
        );
        assert_eq!(base_type_ident("HashSet<Asn>"), "HashSet");
        assert_eq!(base_type_ident("f64"), "f64");
        assert_eq!(base_type_ident("&mut Vec<u8>"), "Vec");
    }

    #[test]
    fn visibility_aliases_and_uses() {
        let src = "\
pub const fn a() {}
pub(crate) fn b() {}
pub unsafe extern \"C\" fn c() {}
fn d() {}
pub type Alias = u32;
pub use x::{
    Y,
};
use z::W;
";
        let its = items(src);
        let got: Vec<(ItemKind, &str, bool, usize, usize)> = its
            .iter()
            .map(|i| (i.kind, i.name.as_str(), i.is_pub, i.line, i.body_end))
            .collect();
        assert_eq!(
            got,
            vec![
                (ItemKind::Fn, "a", true, 1, 1),
                (ItemKind::Fn, "b", false, 2, 2),
                (ItemKind::Fn, "c", true, 3, 3),
                (ItemKind::Fn, "d", false, 4, 4),
                (ItemKind::TypeAlias, "Alias", true, 5, 5),
                (ItemKind::Use, "", true, 6, 8),
                (ItemKind::Use, "", false, 9, 9),
            ]
        );
    }

    #[test]
    fn enum_bodies_are_opaque_spans() {
        let src = "\
pub enum Artifact {
    Sanitized(Arc<SanitizedPaths>),
    Cone(Arc<CustomerCones>),
}
";
        let its = items(src);
        assert_eq!(its[0].kind, ItemKind::Enum);
        assert_eq!((its[0].body_start, its[0].body_end), (1, 4));
    }
}
