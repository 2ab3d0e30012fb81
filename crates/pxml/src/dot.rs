//! GraphViz export of probabilistic XML trees.
//!
//! The paper draws its probabilistic trees with ▽ probability nodes,
//! ○ possibility nodes and plain element/text nodes (Fig. 2/3); this
//! module renders the same picture via `dot`:
//!
//! ```text
//! cargo run -p imprecise-bench --bin fig2 | dot -Tsvg > fig2.svg
//! ```

use crate::node::{PxDoc, PxNodeId, PxNodeKind};
use std::fmt::Write as _;

/// Render the document as a GraphViz `digraph` in the paper's Fig. 2
/// style: triangles for probability nodes, circles (labelled with their
/// probability) for possibilities, boxes for elements, plain text leaves.
pub fn to_dot(px: &PxDoc) -> String {
    let mut out = String::from(
        "digraph pxml {\n  rankdir=TB;\n  node [fontname=\"Helvetica\", fontsize=10];\n",
    );
    write_node(px, px.root(), &mut out);
    write_edges(px, px.root(), &mut out);
    out.push_str("}\n");
    out
}

fn node_name(id: PxNodeId) -> String {
    format!("n{}", id.index())
}

fn write_node(px: &PxDoc, node: PxNodeId, out: &mut String) {
    let name = node_name(node);
    match px.kind(node) {
        PxNodeKind::Prob => {
            let _ = writeln!(
                out,
                "  {name} [shape=triangle, orientation=180, label=\"\", \
                 width=0.25, height=0.25, style=filled, fillcolor=gray80];"
            );
        }
        PxNodeKind::Poss => {
            let p = px.nodes.weight(node.index());
            let _ = writeln!(
                out,
                "  {name} [shape=circle, label=\"{p:.2}\", width=0.35];"
            );
        }
        PxNodeKind::Elem { tag, .. } => {
            let _ = writeln!(out, "  {name} [shape=box, label=\"{}\"];", escape(tag));
        }
        PxNodeKind::Text(t) => {
            let _ = writeln!(out, "  {name} [shape=plaintext, label=\"{}\"];", escape(t));
        }
    }
    for &c in px.children(node) {
        write_node(px, c, out);
    }
}

fn write_edges(px: &PxDoc, node: PxNodeId, out: &mut String) {
    for &c in px.children(node) {
        let _ = writeln!(out, "  {} -> {};", node_name(node), node_name(c));
        write_edges(px, c, out);
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_renders_every_node_kind() {
        let px = crate::node::tests::fig2();
        let dot = to_dot(&px);
        assert!(dot.starts_with("digraph pxml {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("shape=triangle"), "probability nodes");
        assert!(dot.contains("shape=circle"), "possibility nodes");
        assert!(dot.contains("label=\"0.50\""), "possibility probabilities");
        assert!(dot.contains("label=\"addressbook\""));
        assert!(dot.contains("label=\"1111\""));
        // Edges exist and reference declared nodes only.
        assert!(dot.contains(" -> "));
    }

    #[test]
    fn labels_are_escaped() {
        let mut px = PxDoc::new();
        let w = px.add_poss(px.root(), 1.0);
        let e = px.add_elem(w, "doc");
        px.add_text(e, "say \"hi\" \\ bye");
        let dot = to_dot(&px);
        assert!(dot.contains("say \\\"hi\\\" \\\\ bye"));
    }

    #[test]
    fn edge_count_matches_tree_size() {
        let px = crate::node::tests::fig2();
        let dot = to_dot(&px);
        // A tree has exactly (nodes - 1) edges.
        let edges = dot.matches(" -> ").count();
        assert_eq!(edges, px.reachable_count() - 1);
    }
}
