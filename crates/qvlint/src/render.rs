//! Diagnostic rendering: a rustc-style text form with source snippets,
//! and a machine-readable JSON form for editor/CI integration.

use crate::{codes, summary, Diagnostic};
use qurator_telemetry::json::escape;
use std::fmt::Write as _;

/// Renders diagnostics in the familiar compiler style:
///
/// ```text
/// error[QV022]: action "dead": condition is unsatisfiable
///   --> view.qv:12:18
///    |
/// 12 |       <condition>HR_MC &gt; 5 and HR_MC &lt; 2</condition>
///    |                  ^
///    = help: adjust the bounds so the ranges overlap
/// ```
///
/// `source` is the original document text (used for snippet lines);
/// rendering degrades gracefully when a diagnostic has no span.
pub fn render_text(diags: &[Diagnostic], source_name: &str, source: &str) -> String {
    let lines: Vec<&str> = source.lines().collect();
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
        if let Some(span) = d.span {
            let _ = writeln!(out, "  --> {source_name}:{}:{}", span.line, span.col);
            render_snippet(&mut out, &lines, span.line, span.col);
        }
        for label in &d.labels {
            match label.span {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "   = note: {} (at {}:{}:{})",
                        label.message, source_name, s.line, s.col
                    );
                }
                None => {
                    let _ = writeln!(out, "   = note: {}", label.message);
                }
            }
        }
        if let Some(help) = &d.help {
            let _ = writeln!(out, "   = help: {help}");
        }
        if let Some(s) = &d.suggestion {
            let _ = writeln!(out, "   = help: {} [{}]", s.message, s.applicability);
            if !s.replacement.is_empty() {
                let _ = writeln!(out, "   = fix: replace with `{}`", s.replacement);
            }
        }
        out.push('\n');
    }
    let _ = writeln!(out, "{}", summary(diags));
    out
}

fn render_snippet(out: &mut String, lines: &[&str], line: u32, col: u32) {
    let Some(text) = lines.get(line as usize - 1) else {
        return;
    };
    let gutter = line.to_string().len().max(2);
    let _ = writeln!(out, "{:gutter$} |", "");
    let _ = writeln!(out, "{line:gutter$} | {text}");
    // the caret column counts bytes from the line start; expand nothing,
    // just pad with spaces (tabs are preserved so terminals line up)
    let mut pad = String::new();
    for (i, c) in text.char_indices() {
        if i + 1 >= col as usize {
            break;
        }
        pad.push(if c == '\t' { '\t' } else { ' ' });
    }
    let _ = writeln!(out, "{:gutter$} | {pad}^", "");
}

/// Renders diagnostics as a JSON array (machine-readable; the schema is
/// documented in DESIGN.md §7). No external JSON library: the value space
/// is flat, and strings go through the telemetry crate's escaper.
pub fn render_json(diags: &[Diagnostic], source_name: &str) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        let _ = write!(
            out,
            "\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"",
            escape(d.code),
            escape(&d.severity.to_string()),
            escape(&d.message)
        );
        if let Some(desc) = codes::describe(d.code) {
            let _ = write!(out, ",\"description\":\"{}\"", escape(desc));
        }
        let _ = write!(out, ",\"file\":\"{}\"", escape(source_name));
        if let Some(span) = d.span {
            let _ = write!(out, ",\"line\":{},\"col\":{}", span.line, span.col);
        }
        if !d.labels.is_empty() {
            out.push_str(",\"notes\":[");
            for (j, label) in d.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('{');
                let _ = write!(out, "\"message\":\"{}\"", escape(&label.message));
                if let Some(s) = label.span {
                    let _ = write!(out, ",\"line\":{},\"col\":{}", s.line, s.col);
                }
                out.push('}');
            }
            out.push(']');
        }
        if let Some(help) = &d.help {
            let _ = write!(out, ",\"help\":\"{}\"", escape(help));
        }
        if let Some(s) = &d.suggestion {
            let _ = write!(
                out,
                ",\"suggestion\":{{\"message\":\"{}\",\"replacement\":\"{}\",\"applicability\":\"{}\",\
                 \"line\":{},\"col\":{},\"offset\":{},\"len\":{}}}",
                escape(&s.message),
                escape(&s.replacement),
                escape(&s.applicability.to_string()),
                s.span.line,
                s.span.col,
                s.span.offset,
                s.span.len,
            );
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Span;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic::error("QV015", "action \"x\": bad syntax")
                .at(Some(Span::new(2, 5)))
                .help("check the grammar"),
            Diagnostic::warning("QV019", "tag \"HR\" is never read")
                .label(Some(Span::new(1, 1)), "produced here"),
        ]
    }

    #[test]
    fn text_rendering_shows_snippet_and_caret() {
        let src = "<QualityView name=\"v\">\n  <action name=\"x\"/>\n</QualityView>";
        let text = render_text(&sample(), "v.qv", src);
        assert!(text.contains("error[QV015]: action \"x\": bad syntax"));
        assert!(text.contains("--> v.qv:2:5"));
        assert!(text.contains(" 2 |   <action name=\"x\"/>"));
        assert!(text.contains("|     ^"), "caret under column 5:\n{text}");
        assert!(text.contains("= help: check the grammar"));
        assert!(text.contains("= note: produced here (at v.qv:1:1)"));
        assert!(text.contains("1 error, 1 warning"));
    }

    #[test]
    fn text_rendering_without_spans() {
        let diags = vec![Diagnostic::error("QV001", "empty name")];
        let text = render_text(&diags, "v.qv", "");
        assert!(text.contains("error[QV001]: empty name"));
        assert!(!text.contains("-->"));
    }

    #[test]
    fn json_rendering_is_escaped_and_complete() {
        let json = render_json(&sample(), "dir/v \"q\".qv");
        assert!(json.contains("\"code\":\"QV015\""));
        assert!(json.contains("\"severity\":\"error\""));
        assert!(json.contains("\"line\":2,\"col\":5"));
        assert!(json.contains("\"file\":\"dir/v \\\"q\\\".qv\""));
        assert!(json.contains("\"description\":\"condition syntax error\""));
        assert!(json.contains("\"notes\":[{\"message\":\"produced here\",\"line\":1,\"col\":1}]"));
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    }

    #[test]
    fn json_of_empty_list() {
        assert_eq!(render_json(&[], "x"), "[\n]\n");
    }

    #[test]
    fn suggestions_render_in_both_forms() {
        let diags = vec![Diagnostic::warning("QV025", "group \"dead\" can never match")
            .at(Some(Span::new(3, 5)))
            .suggest(
                "delete the dead group \"dead\"",
                crate::Span::with_extent(3, 5, 40, 20),
                "",
                crate::Applicability::MachineApplicable,
            )];
        let text = render_text(&diags, "v.qv", "<a>\n<b>\n  <group/>\n</a>");
        assert!(text.contains("= help: delete the dead group \"dead\" [machine-applicable]"));
        assert!(!text.contains("= fix:"), "deletions carry no replacement text");
        let json = render_json(&diags, "v.qv");
        assert!(json.contains(
            "\"suggestion\":{\"message\":\"delete the dead group \\\"dead\\\"\",\
             \"replacement\":\"\",\"applicability\":\"machine-applicable\",\
             \"line\":3,\"col\":5,\"offset\":40,\"len\":20}"
        ));

        let diags =
            vec![Diagnostic::error("QV021", "foreign label").at(Some(Span::new(1, 1))).suggest(
                "drop the foreign label(s)",
                crate::Span::with_extent(1, 1, 0, 3),
                "(C in {q:low})",
                crate::Applicability::MachineApplicable,
            )];
        let text = render_text(&diags, "v.qv", "<a/>");
        assert!(text.contains("= fix: replace with `(C in {q:low})`"));
    }
}
