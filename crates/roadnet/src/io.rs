//! Plain-text export of road networks (`scuba-sim city --out`).
//!
//! Format (one record per line, after a `#` header comment):
//!
//! ```text
//! n <id> <x> <y>          # node; ids dense and ascending from 0
//! e <from> <to> <class>   # edge; class is H | A | L
//! ```

use std::fmt::Write as _;

use crate::network::RoadNetwork;

/// Serialises a network to the text format.
pub fn to_text(net: &RoadNetwork) -> String {
    let mut out = String::new();
    out.push_str("# scuba-roadnet v1\n");
    for id in net.node_ids() {
        let p = net.position(id).expect("node exists");
        writeln!(out, "n {} {} {}", id.0, p.x, p.y).expect("writing to String cannot fail");
    }
    for e in net.edges() {
        writeln!(out, "e {} {} {}", e.from.0, e.to.0, e.class.token())
            .expect("writing to String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{CityConfig, SyntheticCity};

    #[test]
    fn one_line_per_node_and_edge() {
        let city = SyntheticCity::build(CityConfig::small());
        let text = to_text(&city.network);
        let count = |kind: &str| text.lines().filter(|l| l.starts_with(kind)).count();
        assert_eq!(count("n "), city.network.node_count());
        assert_eq!(count("e "), city.network.edge_count());
        let first = city.network.edges().next().unwrap();
        let line = format!("e {} {} {}", first.from.0, first.to.0, first.class.token());
        assert!(text.lines().any(|l| l == line), "{line}");
    }
}
