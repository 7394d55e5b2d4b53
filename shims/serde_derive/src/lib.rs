//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! vendored `serde` shim. The real `serde_derive` is unavailable offline,
//! so this crate parses the derive input with nothing but `proc_macro`
//! itself and emits impls of the shim's value-tree traits.
//!
//! Supported shapes (everything this workspace derives on):
//! - structs with named fields
//! - tuple structs and unit structs
//! - enums with unit, tuple and struct variants
//!
//! Generic types are rejected with a compile error; none of the workspace
//! types that derive serde are generic.

#![deny(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

#[derive(Debug)]
struct Variant {
    name: String,
    fields: Fields,
}

#[derive(Debug)]
enum Input {
    Struct { name: String, fields: Fields },
    Enum { name: String, variants: Vec<Variant> },
}

/// Consumes leading attributes (`#[...]`) and a visibility marker
/// (`pub`, `pub(...)`) from the token cursor.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // `#` followed by a bracketed group.
                i += 1;
                if matches!(tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket)
                {
                    i += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if matches!(tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    i += 1;
                }
            }
            _ => return i,
        }
    }
}

/// Splits a token slice at top-level commas, tracking `<`/`>` depth so
/// commas inside generic arguments (e.g. `Vec<(String, f64)>`) don't
/// split. Parens/brackets/braces arrive as single groups, so only angle
/// brackets need explicit tracking.
fn split_top_level_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out: Vec<Vec<TokenTree>> = Vec::new();
    let mut current: Vec<TokenTree> = Vec::new();
    let mut angle_depth = 0i32;
    for t in tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle_depth += 1;
                current.push(t.clone());
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth -= 1;
                current.push(t.clone());
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                out.push(std::mem::take(&mut current));
            }
            _ => current.push(t.clone()),
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

fn parse_named_fields(group_tokens: &[TokenTree]) -> Vec<String> {
    split_top_level_commas(group_tokens)
        .into_iter()
        .filter_map(|field_tokens| {
            let i = skip_attrs_and_vis(&field_tokens, 0);
            match field_tokens.get(i) {
                Some(TokenTree::Ident(id)) => Some(id.to_string()),
                _ => None,
            }
        })
        .collect()
}

fn parse_tuple_arity(group_tokens: &[TokenTree]) -> usize {
    split_top_level_commas(group_tokens).into_iter().filter(|t| !t.is_empty()).count()
}

fn parse_variants(group_tokens: &[TokenTree]) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut i = 0usize;
    while i < group_tokens.len() {
        i = skip_attrs_and_vis(group_tokens, i);
        let Some(TokenTree::Ident(id)) = group_tokens.get(i) else {
            break;
        };
        let name = id.to_string();
        i += 1;
        let fields = match group_tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                Fields::Named(parse_named_fields(&inner))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                Fields::Tuple(parse_tuple_arity(&inner))
            }
            _ => Fields::Unit,
        };
        // Skip an optional `= <discriminant>` and the trailing comma.
        while i < group_tokens.len() {
            if let TokenTree::Punct(p) = &group_tokens[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    variants
}

fn parse_input(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&tokens, 0);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive shim: expected `struct` or `enum`, got {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive shim: expected type name, got {other}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic type `{name}` is not supported");
    }
    match kind.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    Fields::Named(parse_named_fields(&inner))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    Fields::Tuple(parse_tuple_arity(&inner))
                }
                _ => Fields::Unit,
            };
            Input::Struct { name, fields }
        }
        "enum" => {
            let variants = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    parse_variants(&inner)
                }
                other => panic!("serde_derive shim: malformed enum body: {other:?}"),
            };
            Input::Enum { name, variants }
        }
        other => panic!("serde_derive shim: cannot derive for `{other}`"),
    }
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    let code = match &parsed {
        Input::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(names) => {
                    let pushes: String = names
                        .iter()
                        .map(|f| {
                            format!(
                                "entries.push(({f:?}.to_string(), ::serde::Serialize::to_value(&self.{f})));\n"
                            )
                        })
                        .collect();
                    format!(
                        "let mut entries = ::std::vec::Vec::new();\n{pushes}::serde::Value::Map(entries)"
                    )
                }
                Fields::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                        .collect();
                    format!("::serde::Value::Seq(vec![{}])", items.join(", "))
                }
                Fields::Unit => "::serde::Value::Null".to_string(),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n    fn to_value(&self) -> ::serde::Value {{\n        {body}\n    }}\n}}"
            )
        }
        Input::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.fields {
                        Fields::Unit => format!(
                            "{name}::{vname} => ::serde::Value::Str({vname:?}.to_string()),\n"
                        ),
                        Fields::Tuple(1) => format!(
                            "{name}::{vname}(f0) => ::serde::Value::Map(vec![({vname:?}.to_string(), ::serde::Serialize::to_value(f0))]),\n"
                        ),
                        Fields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                            let items: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::Serialize::to_value(f{i})"))
                                .collect();
                            format!(
                                "{name}::{vname}({binds}) => ::serde::Value::Map(vec![({vname:?}.to_string(), ::serde::Value::Seq(vec![{items}]))]),\n",
                                binds = binds.join(", "),
                                items = items.join(", ")
                            )
                        }
                        Fields::Named(fields) => {
                            let binds = fields.join(", ");
                            let pushes: String = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "inner.push(({f:?}.to_string(), ::serde::Serialize::to_value({f})));\n"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vname} {{ {binds} }} => {{\n  let mut inner = ::std::vec::Vec::new();\n  {pushes}  ::serde::Value::Map(vec![({vname:?}.to_string(), ::serde::Value::Map(inner))])\n}}\n"
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n    fn to_value(&self) -> ::serde::Value {{\n        match self {{\n{arms}        }}\n    }}\n}}"
            )
        }
    };
    code.parse().expect("serde_derive shim: generated invalid Serialize impl")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    let code = match &parsed {
        Input::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(names) => {
                    let inits: String = names
                        .iter()
                        .map(|f| {
                            format!(
                                "{f}: ::serde::Deserialize::from_value(value.field({f:?})).map_err(|e| e.in_field(concat!(stringify!({name}), \".\", {f:?})))?,\n"
                            )
                        })
                        .collect();
                    format!("::core::result::Result::Ok({name} {{\n{inits}}})")
                }
                Fields::Tuple(n) => {
                    let inits: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Deserialize::from_value(items.get({i}).unwrap_or(&::serde::Value::Null))?"))
                        .collect();
                    format!(
                        "let items = value.as_seq().ok_or_else(|| ::serde::Error::custom(concat!(\"expected sequence for \", stringify!({name}))))?;\nif items.len() != {n} {{ return ::core::result::Result::Err(::serde::Error::custom(concat!(\"wrong arity for \", stringify!({name})))); }}\n::core::result::Result::Ok({name}({inits}))",
                        inits = inits.join(", ")
                    )
                }
                Fields::Unit => format!("::core::result::Result::Ok({name})"),
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n    fn from_value(value: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{\n        {body}\n    }}\n}}"
            )
        }
        Input::Enum { name, variants } => {
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.fields, Fields::Unit))
                .map(|v| {
                    let vname = &v.name;
                    format!("{vname:?} => ::core::result::Result::Ok({name}::{vname}),\n")
                })
                .collect();
            let tagged_arms: String = variants
                .iter()
                .filter(|v| !matches!(v.fields, Fields::Unit))
                .map(|v| {
                    let vname = &v.name;
                    match &v.fields {
                        Fields::Tuple(1) => format!(
                            "{vname:?} => ::core::result::Result::Ok({name}::{vname}(::serde::Deserialize::from_value(payload)?)),\n"
                        ),
                        Fields::Tuple(n) => {
                            let inits: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::Deserialize::from_value(items.get({i}).unwrap_or(&::serde::Value::Null))?"))
                                .collect();
                            format!(
                                "{vname:?} => {{\n  let items = payload.as_seq().ok_or_else(|| ::serde::Error::custom(\"expected sequence payload\"))?;\n  ::core::result::Result::Ok({name}::{vname}({inits}))\n}}\n",
                                inits = inits.join(", ")
                            )
                        }
                        Fields::Named(fields) => {
                            let inits: String = fields
                                .iter()
                                .map(|f| {
                                    format!("{f}: ::serde::Deserialize::from_value(payload.field({f:?}))?,\n")
                                })
                                .collect();
                            format!(
                                "{vname:?} => ::core::result::Result::Ok({name}::{vname} {{\n{inits}}}),\n"
                            )
                        }
                        Fields::Unit => unreachable!(),
                    }
                })
                .collect();
            let has_unit = !unit_arms.is_empty();
            let has_tagged = !tagged_arms.is_empty();
            let str_arm = if has_unit {
                format!(
                    "::serde::Value::Str(s) => match s.as_str() {{\n{unit_arms}other => ::core::result::Result::Err(::serde::Error::custom(format!(concat!(\"unknown variant {{}} for \", stringify!({name})), other))),\n}},\n"
                )
            } else {
                String::new()
            };
            let map_arm = if has_tagged {
                format!(
                    "::serde::Value::Map(entries) if entries.len() == 1 => {{\n  let (tag, payload) = &entries[0];\n  match tag.as_str() {{\n{tagged_arms}other => ::core::result::Result::Err(::serde::Error::custom(format!(concat!(\"unknown variant {{}} for \", stringify!({name})), other))),\n}}\n}},\n"
                )
            } else {
                String::new()
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n    fn from_value(value: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{\n        match value {{\n{str_arm}{map_arm}_ => ::core::result::Result::Err(::serde::Error::custom(concat!(\"invalid value for enum \", stringify!({name})))),\n        }}\n    }}\n}}"
            )
        }
    };
    code.parse().expect("serde_derive shim: generated invalid Deserialize impl")
}
