//! Integration tests of the threaded streaming path: generator on a
//! producer thread, wire-encoded updates over a bounded channel, SCUBA on
//! the consumer side — the full "location updates arrive via data streams"
//! deployment shape of paper §2.

use std::sync::Arc;

use scuba::{ScubaOperator, ScubaParams};
use scuba_generator::{WorkloadConfig, WorkloadGenerator};
use scuba_roadnet::{CityConfig, SyntheticCity};
use scuba_stream::channel::spawn_source;
use scuba_stream::{Executor, ExecutorConfig};

#[test]
fn threaded_stream_equals_in_process_run() {
    let city = SyntheticCity::build(CityConfig::small());
    let area = city.network.extent().expect("city has nodes");
    let network = Arc::new(city.network);
    let workload = WorkloadConfig {
        num_objects: 120,
        num_queries: 80,
        skew: 20,
        query_range_side: 30.0,
        ..WorkloadConfig::default()
    };
    let executor = Executor::new(ExecutorConfig {
        delta: 2,
        duration: 8,
    });

    // In-process run.
    let mut generator = WorkloadGenerator::new(Arc::clone(&network), workload);
    let mut direct = ScubaOperator::new(ScubaParams::default(), area);
    let direct_run = executor.run(&mut || generator.tick(), &mut direct);

    // Threaded run: the generator lives on the producer thread and its
    // updates cross the channel in wire format.
    let mut generator = WorkloadGenerator::new(network, workload);
    let mut receiver = spawn_source(move || generator.tick(), 8, 4);
    let mut threaded = ScubaOperator::new(ScubaParams::default(), area);
    let threaded_run = executor.run(&mut receiver, &mut threaded);

    assert_eq!(direct_run.updates_ingested, threaded_run.updates_ingested);
    assert_eq!(direct_run.evaluations.len(), threaded_run.evaluations.len());
    for (d, t) in direct_run.evaluations.iter().zip(&threaded_run.evaluations) {
        assert_eq!(d.results, t.results, "wire transport changed results");
    }
    assert_eq!(receiver.decode_errors(), 0);
}

#[test]
fn producer_outliving_consumer_is_harmless() {
    let city = SyntheticCity::build(CityConfig::small());
    let area = city.network.extent().expect("city has nodes");
    let mut generator = WorkloadGenerator::new(
        Arc::new(city.network),
        WorkloadConfig {
            num_objects: 50,
            num_queries: 50,
            ..WorkloadConfig::small()
        },
    );
    // Producer wants to send 100 ticks; the executor only consumes 4.
    let mut receiver = spawn_source(move || generator.tick(), 100, 2);
    let mut operator = ScubaOperator::new(ScubaParams::default(), area);
    let executor = Executor::new(ExecutorConfig {
        delta: 2,
        duration: 4,
    });
    let run = executor.run(&mut receiver, &mut operator);
    assert_eq!(run.evaluations.len(), 2);
    assert_eq!(run.updates_ingested, 4 * 100);
    // Dropping the receiver unblocks and terminates the producer thread.
    drop(receiver);
}

#[test]
fn consumer_drains_short_producer() {
    let city = SyntheticCity::build(CityConfig::small());
    let area = city.network.extent().expect("city has nodes");
    let mut generator = WorkloadGenerator::new(
        Arc::new(city.network),
        WorkloadConfig {
            num_objects: 30,
            num_queries: 30,
            ..WorkloadConfig::small()
        },
    );
    // Producer sends only 3 ticks; the executor runs for 8 — the tail
    // ticks see empty batches instead of hanging.
    let mut receiver = spawn_source(move || generator.tick(), 3, 2);
    let mut operator = ScubaOperator::new(ScubaParams::default(), area);
    let executor = Executor::new(ExecutorConfig {
        delta: 2,
        duration: 8,
    });
    let run = executor.run(&mut receiver, &mut operator);
    assert_eq!(run.updates_ingested, 3 * 60);
    assert_eq!(run.evaluations.len(), 4);
}
