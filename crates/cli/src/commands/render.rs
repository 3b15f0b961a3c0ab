//! `scuba-sim render` — ASCII snapshot of the cluster state.
//!
//! Runs the simulation for the configured duration, then draws the coverage
//! area as a character grid: road connection nodes as faint dots, moving
//! clusters as glyphs at their centroid cell. Useful for eyeballing how the
//! workload clusters (convoy structure, fragmentation at low skew, empty
//! countryside) without leaving the terminal.

use std::io::Write;
use std::sync::Arc;

use scuba::ScubaOperator;
use scuba_spatial::Rect;
use scuba_stream::{Executor, ExecutorConfig};

use crate::config::{OutputOptions, SimConfig};

/// Glyphs, in increasing priority: empty, road node, query cluster, object
/// cluster, mixed cluster, multiple clusters in one cell.
const EMPTY: char = ' ';
const ROAD: char = '.';
const QUERY: char = 'q';
const OBJECT: char = 'o';
const MIXED: char = 'x';
const MANY: char = '#';

/// Runs the command.
pub fn run(config: &SimConfig, _opts: &OutputOptions, out: &mut dyn Write) -> std::io::Result<()> {
    let (network, area) = super::build_city(config);
    let mut generator = super::build_generator(config, Arc::clone(&network));
    let mut operator = ScubaOperator::new(config.params, area);
    let executor = Executor::new(ExecutorConfig {
        delta: config.params.delta,
        duration: config.duration,
    });
    let report = executor.run(&mut || generator.tick(), &mut operator);

    let width: usize = 72;
    let height: usize = 28;
    let mut canvas = vec![vec![EMPTY; width]; height];

    let cell_of = |p: &scuba_spatial::Point, area: &Rect| -> Option<(usize, usize)> {
        if !area.contains(p) {
            return None;
        }
        let cx = ((p.x - area.min.x) / area.width().max(1e-9) * width as f64) as usize;
        // Flip y: text rows grow downward, map coordinates upward.
        let cy = ((area.max.y - p.y) / area.height().max(1e-9) * height as f64) as usize;
        Some((cx.min(width - 1), cy.min(height - 1)))
    };

    for node in network.node_ids() {
        if let Some(p) = network.position(node) {
            if let Some((x, y)) = cell_of(p, &area) {
                if canvas[y][x] == EMPTY {
                    canvas[y][x] = ROAD;
                }
            }
        }
    }

    let (mut object_clusters, mut query_clusters, mut mixed_clusters) = (0, 0, 0);
    for cluster in operator.engine().store().values() {
        let glyph = if cluster.is_mixed() {
            mixed_clusters += 1;
            MIXED
        } else if cluster.object_count() > 0 {
            object_clusters += 1;
            OBJECT
        } else {
            query_clusters += 1;
            QUERY
        };
        if let Some((x, y)) = cell_of(&cluster.centroid(), &area) {
            let current = canvas[y][x];
            canvas[y][x] = if current == EMPTY || current == ROAD {
                glyph
            } else {
                MANY
            };
        }
    }

    writeln!(
        out,
        "cluster map after t={} ({} clusters: {object_clusters} object, \
         {query_clusters} query, {mixed_clusters} mixed; {} results last interval)",
        config.duration,
        operator.engine().cluster_count(),
        report
            .evaluations
            .last()
            .map(|e| e.results.len())
            .unwrap_or(0),
    )?;
    writeln!(out, "+{}+", "-".repeat(width))?;
    for row in &canvas {
        let line: String = row.iter().collect();
        writeln!(out, "|{line}|")?;
    }
    writeln!(out, "+{}+", "-".repeat(width))?;
    writeln!(
        out,
        "legend: '{ROAD}' connection node  '{OBJECT}' object cluster  \
         '{QUERY}' query cluster  '{MIXED}' mixed  '{MANY}' several clusters"
    )?;
    Ok(())
}
