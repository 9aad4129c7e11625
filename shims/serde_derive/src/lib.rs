//! Offline `serde_derive` shim.
//!
//! Generates impls of the shim `serde::Serialize` / `serde::Deserialize`
//! value-tree traits for structs and enums. The input item is parsed directly
//! from the `proc_macro::TokenStream` (no `syn`/`quote` in an offline build),
//! covering the shapes used in this workspace:
//!
//! * structs with named fields, including `#[serde(skip)]` fields (skipped on
//!   serialize, `Default::default()` on deserialize),
//! * tuple/newtype structs and unit structs,
//! * enums with unit, tuple and struct variants (externally tagged, like real
//!   serde), and `#[serde(untagged)]` enums of newtype variants (serialized
//!   as the payload alone; deserialized as the first variant that accepts
//!   the data),
//! * simple generic parameters (`struct GaResult<G> { ... }`), which get a
//!   `G: serde::Serialize` / `G: serde::Deserialize` bound,
//! * the container attribute `#[serde(try_from = "Repr")]`: deserialize
//!   `Repr`, then convert it with `TryFrom`, whose error becomes the
//!   deserialization error (serializing is unaffected, as in real serde).

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------------
// Item model
// ---------------------------------------------------------------------------

struct Field {
    name: String,
    skip: bool,
}

enum Fields {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum ItemKind {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct GenParam {
    /// Full declaration text, e.g. `G`, `G: Clone`, `'a`, `const N: usize`.
    decl: String,
    /// Bare name used in type position, e.g. `G`, `'a`, `N`.
    arg: String,
    /// Whether a serde trait bound should be added (type params only).
    needs_bound: bool,
}

struct Item {
    name: String,
    generics: Vec<GenParam>,
    kind: ItemKind,
    untagged: bool,
    /// The `Repr` of `#[serde(try_from = "Repr")]`.
    try_from: Option<String>,
}

// ---------------------------------------------------------------------------
// Token-stream parsing
// ---------------------------------------------------------------------------

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Cursor {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Skips outer attributes; returns the words of every `#[serde(...)]`
    /// among them (e.g. `skip`, `untagged`).
    fn skip_attributes(&mut self) -> Vec<String> {
        let mut words = Vec::new();
        loop {
            let is_pound = matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#');
            if !is_pound {
                return words;
            }
            self.pos += 1;
            if let Some(TokenTree::Group(g)) = self.next() {
                let mut inner = g.stream().into_iter();
                if let Some(TokenTree::Ident(id)) = inner.next() {
                    if id.to_string() == "serde" {
                        if let Some(TokenTree::Group(args)) = inner.next() {
                            let text = args.stream().to_string();
                            words.extend(text.split(',').map(|part| part.trim().to_string()));
                        }
                    }
                }
            }
        }
    }

    fn skip_visibility(&mut self) {
        if matches!(self.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            self.pos += 1;
            if matches!(
                self.peek(),
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
            ) {
                self.pos += 1;
            }
        }
    }

    fn expect_ident(&mut self, what: &str) -> String {
        match self.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde derive: expected {what}, found {other:?}"),
        }
    }

    /// Parses `<...>` generic parameters if present.
    fn parse_generics(&mut self) -> Vec<GenParam> {
        let starts = matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<');
        if !starts {
            return Vec::new();
        }
        self.pos += 1;
        let mut depth = 1usize;
        let mut params = Vec::new();
        let mut current: Vec<TokenTree> = Vec::new();
        while depth > 0 {
            let t = self.next().expect("serde derive: unterminated generics");
            if let TokenTree::Punct(p) = &t {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    ',' if depth == 1 => {
                        params.push(make_gen_param(&current));
                        current.clear();
                        continue;
                    }
                    _ => {}
                }
            }
            current.push(t);
        }
        if !current.is_empty() {
            params.push(make_gen_param(&current));
        }
        params
    }

    /// Consumes type tokens until a top-level `,` (angle-bracket aware).
    /// Returns `true` if a comma was consumed (more items may follow).
    fn skip_type_until_comma(&mut self) -> bool {
        let mut angle = 0i32;
        while let Some(t) = self.peek() {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    '<' => angle += 1,
                    '>' => angle -= 1,
                    ',' if angle == 0 => {
                        self.pos += 1;
                        return true;
                    }
                    _ => {}
                }
            }
            self.pos += 1;
        }
        false
    }
}

fn make_gen_param(tokens: &[TokenTree]) -> GenParam {
    let decl: String = tokens
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(" ");
    // Lifetime: starts with a `'` punct.
    if matches!(tokens.first(), Some(TokenTree::Punct(p)) if p.as_char() == '\'') {
        let name = tokens.get(1).map(|t| t.to_string()).unwrap_or_default();
        return GenParam {
            decl,
            arg: ::std::format!("'{name}"),
            needs_bound: false,
        };
    }
    // Const parameter: `const N: usize`.
    if matches!(tokens.first(), Some(TokenTree::Ident(id)) if id.to_string() == "const") {
        let name = tokens.get(1).map(|t| t.to_string()).unwrap_or_default();
        return GenParam {
            decl,
            arg: name,
            needs_bound: false,
        };
    }
    // Plain type parameter, possibly with bounds.
    let name = tokens.first().map(|t| t.to_string()).unwrap_or_default();
    GenParam {
        decl,
        arg: name,
        needs_bound: true,
    }
}

fn parse_named_fields(group: TokenStream) -> Vec<Field> {
    let mut cur = Cursor::new(group);
    let mut fields = Vec::new();
    while !cur.at_end() {
        let skip = cur.skip_attributes().iter().any(|w| w == "skip");
        if cur.at_end() {
            break;
        }
        cur.skip_visibility();
        let name = cur.expect_ident("field name");
        match cur.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde derive: expected ':' after field {name}, found {other:?}"),
        }
        fields.push(Field { name, skip });
        if !cur.skip_type_until_comma() {
            break;
        }
    }
    fields
}

fn count_tuple_fields(group: TokenStream) -> usize {
    let mut cur = Cursor::new(group);
    let mut count = 0usize;
    loop {
        cur.skip_attributes();
        if cur.at_end() {
            break;
        }
        cur.skip_visibility();
        if cur.at_end() {
            break;
        }
        count += 1;
        if !cur.skip_type_until_comma() {
            break;
        }
    }
    count
}

fn parse_variants(group: TokenStream) -> Vec<Variant> {
    let mut cur = Cursor::new(group);
    let mut variants = Vec::new();
    while !cur.at_end() {
        cur.skip_attributes();
        if cur.at_end() {
            break;
        }
        let name = cur.expect_ident("variant name");
        let fields = match cur.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let stream = g.stream();
                cur.pos += 1;
                Fields::Named(parse_named_fields(stream))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let stream = g.stream();
                cur.pos += 1;
                Fields::Tuple(count_tuple_fields(stream))
            }
            _ => Fields::Unit,
        };
        // Skip an explicit discriminant (`= expr`) and the trailing comma.
        while let Some(t) = cur.peek() {
            if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                cur.pos += 1;
                break;
            }
            cur.pos += 1;
        }
        variants.push(Variant { name, fields });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut cur = Cursor::new(input);
    let words = cur.skip_attributes();
    let untagged = words.iter().any(|w| w == "untagged");
    let try_from = words.iter().find_map(|w| {
        let (key, repr) = w.split_once('=')?;
        (key.trim() == "try_from").then(|| repr.trim().trim_matches('"').to_string())
    });
    cur.skip_visibility();
    let keyword = cur.expect_ident("struct/enum keyword");
    let name = cur.expect_ident("type name");
    let generics = cur.parse_generics();
    // Skip a where clause if present (tokens until the body group).
    let kind = loop {
        match cur.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let stream = g.stream();
                cur.pos += 1;
                break if keyword == "enum" {
                    ItemKind::Enum(parse_variants(stream))
                } else {
                    ItemKind::Struct(Fields::Named(parse_named_fields(stream)))
                };
            }
            Some(TokenTree::Group(g))
                if g.delimiter() == Delimiter::Parenthesis && keyword == "struct" =>
            {
                let stream = g.stream();
                cur.pos += 1;
                break ItemKind::Struct(Fields::Tuple(count_tuple_fields(stream)));
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => {
                cur.pos += 1;
                break ItemKind::Struct(Fields::Unit);
            }
            Some(_) => {
                cur.pos += 1;
            }
            None => panic!("serde derive: missing body for {name}"),
        }
    };
    Item {
        name,
        generics,
        kind,
        untagged,
        try_from,
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn impl_header(item: &Item, trait_name: &str) -> String {
    if item.generics.is_empty() {
        return ::std::format!("impl serde::{trait_name} for {}", item.name);
    }
    let decls: Vec<String> = item
        .generics
        .iter()
        .map(|g| {
            if g.needs_bound {
                if g.decl.contains(':') {
                    ::std::format!("{} + serde::{trait_name}", g.decl)
                } else {
                    ::std::format!("{}: serde::{trait_name}", g.decl)
                }
            } else {
                g.decl.clone()
            }
        })
        .collect();
    let args: Vec<String> = item.generics.iter().map(|g| g.arg.clone()).collect();
    ::std::format!(
        "impl<{}> serde::{trait_name} for {}<{}>",
        decls.join(", "),
        item.name,
        args.join(", ")
    )
}

/// The variant names of an untagged enum, which must all be newtypes.
fn untagged_variants<'a>(item: &'a Item, variants: &'a [Variant]) -> impl Iterator<Item = &'a str> {
    variants.iter().map(move |v| {
        assert!(
            matches!(v.fields, Fields::Tuple(1)),
            "serde derive: untagged {} supports newtype variants only",
            item.name
        );
        v.name.as_str()
    })
}

fn gen_serialize(item: &Item) -> String {
    let body = match &item.kind {
        ItemKind::Struct(Fields::Named(fields)) => {
            let mut s = ::std::string::String::from(
                "let mut map: ::std::vec::Vec<(::std::string::String, serde::Value)> = ::std::vec::Vec::new();\n",
            );
            for f in fields.iter().filter(|f| !f.skip) {
                s.push_str(&::std::format!(
                    "map.push((::std::string::String::from(\"{0}\"), serde::Serialize::to_value(&self.{0})));\n",
                    f.name
                ));
            }
            s.push_str("let _ = &mut map;\nserde::Value::Map(map)");
            s
        }
        ItemKind::Struct(Fields::Tuple(1)) => "serde::Serialize::to_value(&self.0)".to_string(),
        ItemKind::Struct(Fields::Tuple(n)) => {
            let items: Vec<String> = (0..*n)
                .map(|i| ::std::format!("serde::Serialize::to_value(&self.{i})"))
                .collect();
            ::std::format!("serde::Value::Seq(::std::vec![{}])", items.join(", "))
        }
        ItemKind::Struct(Fields::Unit) => "serde::Value::Null".to_string(),
        ItemKind::Enum(variants) if item.untagged => {
            let arms: String = untagged_variants(item, variants)
                .map(|vn| ::std::format!("Self::{vn}(x0) => serde::Serialize::to_value(x0),\n"))
                .collect();
            ::std::format!("match self {{\n{arms}}}")
        }
        ItemKind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.fields {
                    Fields::Unit => {
                        arms.push_str(&::std::format!(
                            "Self::{vn} => serde::Value::Str(::std::string::String::from(\"{vn}\")),\n"
                        ));
                    }
                    Fields::Tuple(1) => {
                        arms.push_str(&::std::format!(
                            "Self::{vn}(x0) => serde::Value::Map(::std::vec![(::std::string::String::from(\"{vn}\"), \
                             serde::Serialize::to_value(x0))]),\n"
                        ));
                    }
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| ::std::format!("x{i}")).collect();
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| ::std::format!("serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&::std::format!(
                            "Self::{vn}({}) => serde::Value::Map(::std::vec![(::std::string::String::from(\"{vn}\"), \
                             serde::Value::Seq(::std::vec![{}]))]),\n",
                            binds.join(", "),
                            items.join(", ")
                        ));
                    }
                    Fields::Named(fields) => {
                        let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        let mut inner = ::std::string::String::from(
                            "let mut inner: ::std::vec::Vec<(::std::string::String, serde::Value)> = ::std::vec::Vec::new();\n",
                        );
                        for f in fields.iter().filter(|f| !f.skip) {
                            inner.push_str(&::std::format!(
                                "inner.push((::std::string::String::from(\"{0}\"), \
                                 serde::Serialize::to_value({0})));\n",
                                f.name
                            ));
                        }
                        arms.push_str(&::std::format!(
                            "Self::{vn} {{ {} }} => {{ {inner} serde::Value::Map(::std::vec![(\
                             ::std::string::String::from(\"{vn}\"), serde::Value::Map(inner))]) }}\n",
                            binds.join(", ")
                        ));
                    }
                }
            }
            ::std::format!("match self {{\n{arms}}}")
        }
    };
    ::std::format!(
        "{} {{\n fn to_value(&self) -> serde::Value {{\n{body}\n}}\n}}",
        impl_header(item, "Serialize")
    )
}

fn named_fields_ctor(fields: &[Field], map_expr: &str, type_name: &str) -> String {
    let mut s = String::new();
    for f in fields {
        if f.skip {
            s.push_str(&::std::format!(
                "{}: ::core::default::Default::default(),\n",
                f.name
            ));
        } else {
            s.push_str(&::std::format!(
                "{0}: serde::Deserialize::from_value(serde::get_field({map_expr}, \"{0}\")\
                 .ok_or_else(|| serde::DeError::custom(\
                 \"missing field {0} in {type_name}\"))?)?,\n",
                f.name
            ));
        }
    }
    s
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        _ if item.try_from.is_some() => ::std::format!(
            "let repr: {} = serde::Deserialize::from_value(v)?;\n\
             ::core::convert::TryFrom::try_from(repr)\
             .map_err(|e| serde::DeError::custom(::std::format!(\"{{e}}\")))",
            item.try_from.as_deref().unwrap_or_default()
        ),
        ItemKind::Struct(Fields::Named(fields)) => {
            ::std::format!(
                "let map = v.as_map().ok_or_else(|| serde::DeError::custom(\
                 \"expected map for {name}\"))?;\n::core::result::Result::Ok(Self {{\n{}\n}})",
                named_fields_ctor(fields, "map", name)
            )
        }
        ItemKind::Struct(Fields::Tuple(1)) => {
            "::core::result::Result::Ok(Self(serde::Deserialize::from_value(v)?))".to_string()
        }
        ItemKind::Struct(Fields::Tuple(n)) => {
            let items: Vec<String> = (0..*n)
                .map(|i| ::std::format!("serde::Deserialize::from_value(&seq[{i}])?"))
                .collect();
            ::std::format!(
                "let seq = v.as_seq().ok_or_else(|| serde::DeError::custom(\
                 \"expected sequence for {name}\"))?;\n\
                 if seq.len() != {n} {{ return ::core::result::Result::Err(serde::DeError::custom(\
                 \"wrong tuple arity for {name}\")); }}\n\
                 ::core::result::Result::Ok(Self({}))",
                items.join(", ")
            )
        }
        ItemKind::Struct(Fields::Unit) => "::core::result::Result::Ok(Self)".to_string(),
        ItemKind::Enum(variants) if item.untagged => {
            let tries: String = untagged_variants(item, variants)
                .map(|vn| {
                    ::std::format!(
                        "if let ::core::result::Result::Ok(x) = \
                         serde::Deserialize::from_value(v).map(Self::{vn}) {{ \
                         return ::core::result::Result::Ok(x); }}\n"
                    )
                })
                .collect();
            ::std::format!(
                "{tries}::core::result::Result::Err(serde::DeError::custom(\
                 \"data matches no variant of untagged {name}\"))"
            )
        }
        ItemKind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.fields {
                    Fields::Unit => {
                        unit_arms.push_str(&::std::format!(
                            "\"{vn}\" => ::core::result::Result::Ok(Self::{vn}),\n"
                        ));
                    }
                    Fields::Tuple(1) => {
                        tagged_arms.push_str(&::std::format!(
                            "\"{vn}\" => ::core::result::Result::Ok(Self::{vn}(serde::Deserialize::from_value(payload)?)),\n"
                        ));
                    }
                    Fields::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|i| ::std::format!("serde::Deserialize::from_value(&seq[{i}])?"))
                            .collect();
                        tagged_arms.push_str(&::std::format!(
                            "\"{vn}\" => {{ let seq = payload.as_seq().ok_or_else(|| \
                             serde::DeError::custom(\"expected sequence for {name}::{vn}\"))?;\n\
                             if seq.len() != {n} {{ return ::core::result::Result::Err(serde::DeError::custom(\
                             \"wrong arity for {name}::{vn}\")); }}\n\
                             ::core::result::Result::Ok(Self::{vn}({})) }}\n",
                            items.join(", ")
                        ));
                    }
                    Fields::Named(fields) => {
                        tagged_arms.push_str(&::std::format!(
                            "\"{vn}\" => {{ let map = payload.as_map().ok_or_else(|| \
                             serde::DeError::custom(\"expected map for {name}::{vn}\"))?;\n\
                             ::core::result::Result::Ok(Self::{vn} {{\n{}\n}}) }}\n",
                            named_fields_ctor(fields, "map", &::std::format!("{name}::{vn}"))
                        ));
                    }
                }
            }
            ::std::format!(
                "match v {{\n\
                 serde::Value::Str(s) => match s.as_str() {{\n{unit_arms}\
                 other => ::core::result::Result::Err(serde::DeError::custom(::std::format!(\
                 \"unknown variant {{other}} of {name}\"))),\n}},\n\
                 serde::Value::Map(entries) if entries.len() == 1 => {{\n\
                 let (tag, payload) = &entries[0];\nlet _ = payload;\n\
                 match tag.as_str() {{\n{tagged_arms}\
                 other => ::core::result::Result::Err(serde::DeError::custom(::std::format!(\
                 \"unknown variant {{other}} of {name}\"))),\n}}\n}},\n\
                 _ => ::core::result::Result::Err(serde::DeError::custom(\"expected variant of {name}\")),\n}}"
            )
        }
    };
    ::std::format!(
        "{} {{\n fn from_value(v: &serde::Value) -> ::core::result::Result<Self, serde::DeError> {{\n\
         let _ = v;\n{body}\n}}\n}}",
        impl_header(item, "Deserialize")
    )
}

/// Derives the shim `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde derive: generated invalid Serialize impl")
}

/// Derives the shim `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde derive: generated invalid Deserialize impl")
}
