//! # xmlite — a small, dependency-free XML subset parser
//!
//! Shared by the `drcom` descriptor layer (the paper's Figure 2 component
//! meta-data) and the `osgi` Declarative Services runtime (the
//! `OSGI-INF/component.xml` grammar). Covers elements with attributes,
//! nesting, self-closing tags, text content, XML declarations, comments,
//! and the five predefined entities plus numeric character references.
//! Namespace prefixes (`drt:component`, `scr:component`) are preserved
//! verbatim in element names.
//!
//! No external XML crate is in the allowed offline dependency set, which is
//! why this lives in-repo; the parser is deliberately strict — these
//! documents are configuration, and a typo should fail loudly at
//! deployment time.

#![forbid(unsafe_code)]

use std::fmt;

/// An XML parse failure with line/column location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    line: usize,
    column: usize,
    reason: String,
}

impl XmlError {
    /// 1-based line of the failure.
    pub fn line(&self) -> usize {
        self.line
    }

    /// 1-based column of the failure.
    pub fn column(&self) -> usize {
        self.column
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML error at line {}, column {}: {}",
            self.line, self.column, self.reason
        )
    }
}

impl std::error::Error for XmlError {}

/// A child of an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// Text content (entity-decoded, whitespace preserved).
    Text(String),
}

/// A parsed XML element.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name, including any namespace prefix (`drt:component`).
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Children in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// The value of an attribute, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The tag name without a namespace prefix.
    pub fn local_name(&self) -> &str {
        self.name.rsplit(':').next().unwrap_or(&self.name)
    }

    /// Child elements (skipping text nodes).
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// Child elements whose local name equals `name`.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements()
            .filter(move |e| e.local_name() == name)
    }

    /// The first child element with the given local name.
    pub fn child_named(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.local_name() == name)
    }

    /// Concatenated text content of direct text children, trimmed.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out.trim().to_string()
    }
}

/// Parses a document and returns its root element.
///
/// # Errors
///
/// Returns [`XmlError`] with the location of the first problem.
pub fn parse(input: &str) -> Result<Element, XmlError> {
    let mut p = XmlParser::new(input);
    p.skip_misc()?;
    let root = p.parse_element()?;
    p.skip_misc()?;
    if !p.at_end() {
        return Err(p.error("content after root element"));
    }
    Ok(root)
}

struct XmlParser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> XmlParser<'a> {
    fn new(input: &'a str) -> Self {
        XmlParser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, reason: impl Into<String>) -> XmlError {
        let mut line = 1;
        let mut column = 1;
        for b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if *b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        XmlError {
            line,
            column,
            reason: reason.into(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, comments, declarations and processing instructions.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                match self.input[self.pos + 4..].find("-->") {
                    Some(end) => self.pos += 4 + end + 3,
                    None => return Err(self.error("unterminated comment")),
                }
            } else if self.starts_with("<?") {
                match self.input[self.pos + 2..].find("?>") {
                    Some(end) => self.pos += 2 + end + 2,
                    None => return Err(self.error("unterminated declaration")),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric() || matches!(b, b':' | b'_' | b'-' | b'.');
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        let name = &self.input[start..self.pos];
        if !name
            .bytes()
            .next()
            .map(|b| b.is_ascii_alphabetic() || b == b'_')
            .unwrap_or(false)
        {
            return Err(self.error(format!("name `{name}` must start with a letter")));
        }
        Ok(name.to_string())
    }

    fn expect(&mut self, s: &str) -> Result<(), XmlError> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(self.error(format!("expected `{s}`")))
        }
    }

    fn parse_element(&mut self) -> Result<Element, XmlError> {
        self.expect("<")?;
        let name = self.parse_name()?;
        let mut element = Element {
            name,
            attributes: Vec::new(),
            children: Vec::new(),
        };
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    return Ok(element);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    if element.attributes.iter().any(|(k, _)| *k == key) {
                        return Err(self.error(format!("duplicate attribute `{key}`")));
                    }
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    element.attributes.push((key, value));
                }
                None => return Err(self.error("unexpected end inside tag")),
            }
        }
        // Content until matching close tag.
        loop {
            if self.at_end() {
                return Err(self.error(format!("unclosed element `{}`", element.name)));
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != element.name {
                    return Err(self.error(format!(
                        "mismatched close tag `{close}` for `{}`",
                        element.name
                    )));
                }
                self.skip_ws();
                self.expect(">")?;
                return Ok(element);
            }
            if self.starts_with("<!--") || self.starts_with("<?") {
                self.skip_misc()?;
                continue;
            }
            if self.peek() == Some(b'<') {
                let child = self.parse_element()?;
                element.children.push(Node::Element(child));
                continue;
            }
            let text = self.parse_text()?;
            if !text.trim().is_empty() {
                element.children.push(Node::Text(text));
            }
        }
    }

    fn parse_attr_value(&mut self) -> Result<String, XmlError> {
        // Descriptors in the wild (including the paper's Figure 2, which
        // uses typographic quotes) are forgiving about quote characters;
        // we accept ' and ".
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.error("expected quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                let raw = &self.input[start..self.pos];
                self.pos += 1;
                return decode_entities(raw).map_err(|r| self.error(r));
            }
            if b == b'<' {
                return Err(self.error("`<` in attribute value"));
            }
            self.pos += 1;
        }
        Err(self.error("unterminated attribute value"))
    }

    fn parse_text(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'<' {
                break;
            }
            self.pos += 1;
        }
        decode_entities(&self.input[start..self.pos]).map_err(|r| self.error(r))
    }
}

fn decode_entities(raw: &str) -> Result<String, String> {
    if !raw.contains('&') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let end = rest
            .find(';')
            .ok_or_else(|| format!("unterminated entity in `{raw}`"))?;
        let entity = &rest[1..end];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| format!("bad numeric entity `&{entity};`"))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| format!("invalid codepoint `&{entity};`"))?,
                );
            }
            _ if entity.starts_with('#') => {
                let code = entity[1..]
                    .parse::<u32>()
                    .map_err(|_| format!("bad numeric entity `&{entity};`"))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| format!("invalid codepoint `&{entity};`"))?,
                );
            }
            _ => return Err(format!("unknown entity `&{entity};`")),
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_camera_descriptor() {
        let xml = r#"<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="camera" desc="this is a smart camera controller"
    type="periodic" enabled="true" cpuusage="0.1">
  <implementation bincode="ua.pats.demo.smartcamera.RTComponent"/>
  <periodictask frequence="100" runoncup="0" priority="2"/>
  <outport name="images" interface="RTAI.SHM" type="Byte" size="400" />
  <inport name="xysize" interface="RTAI.SHM" type="Integer" size="400"/>
  <property name="prox00" type="Integer" value="6" />
</drt:component>"#;
        let root = parse(xml).unwrap();
        assert_eq!(root.name, "drt:component");
        assert_eq!(root.local_name(), "component");
        assert_eq!(root.attr("name"), Some("camera"));
        assert_eq!(root.attr("cpuusage"), Some("0.1"));
        assert_eq!(root.child_elements().count(), 5);
        let task = root.child_named("periodictask").unwrap();
        assert_eq!(task.attr("frequence"), Some("100"));
        assert_eq!(root.children_named("outport").count(), 1);
        assert_eq!(root.children_named("inport").count(), 1);
        let imp = root.child_named("implementation").unwrap();
        assert_eq!(
            imp.attr("bincode"),
            Some("ua.pats.demo.smartcamera.RTComponent")
        );
    }

    #[test]
    fn nested_elements_and_text() {
        let root = parse("<a><b>hello</b><b>world</b><c/></a>").unwrap();
        let texts: Vec<String> = root.children_named("b").map(|b| b.text()).collect();
        assert_eq!(texts, vec!["hello", "world"]);
        assert!(root.child_named("c").unwrap().children.is_empty());
    }

    #[test]
    fn entities_decode_everywhere() {
        let root = parse(r#"<a t="&lt;x&gt; &amp; &quot;y&quot;">&#65;&#x42;&apos;</a>"#).unwrap();
        assert_eq!(root.attr("t"), Some(r#"<x> & "y""#));
        assert_eq!(root.text(), "AB'");
    }

    #[test]
    fn comments_and_declarations_are_skipped() {
        let root = parse("<?xml version=\"1.0\"?><!-- hi --><a><!-- inner --><b/></a>").unwrap();
        assert_eq!(root.child_elements().count(), 1);
    }

    #[test]
    fn single_quoted_attributes() {
        let root = parse("<a k='v'/>").unwrap();
        assert_eq!(root.attr("k"), Some("v"));
    }

    #[test]
    fn errors_carry_location() {
        let err = parse("<a>\n  <b>\n</a>").unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(err.to_string().contains("mismatched close tag"));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "<",
            "<a",
            "<a>",
            "<a></b>",
            "<a x=1/>",
            "<a x=\"1/>",
            "<a x=\"1\" x=\"2\"/>",
            "<a/><b/>",
            "<a>&nope;</a>",
            "<1a/>",
            "<a><!-- unterminated </a>",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let root = parse("<a>\n   <b/>\n   </a>").unwrap();
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn local_name_strips_prefix_only() {
        let root = parse("<ns:x.y-z_1/>").unwrap();
        assert_eq!(root.local_name(), "x.y-z_1");
    }
}
