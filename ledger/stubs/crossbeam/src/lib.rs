//! Stand-in for `crossbeam`: the bounded MPSC channel the stream crate's
//! transport uses, over `std::sync::mpsc::sync_channel` (which has shared
//! crossbeam-channel's implementation since Rust 1.67).

/// Mirrors `crossbeam::channel`.
pub mod channel {
    use std::sync::mpsc;

    pub use std::sync::mpsc::{RecvError, SendError};

    /// Sending half of a bounded channel.
    #[derive(Debug)]
    pub struct Sender<T>(mpsc::SyncSender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Blocks until there is room, then sends.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    /// Receiving half of a bounded channel.
    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Blocks until a value arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }
    }

    /// Creates a channel holding at most `capacity` values in flight.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(capacity);
        (Sender(tx), Receiver(rx))
    }
}
