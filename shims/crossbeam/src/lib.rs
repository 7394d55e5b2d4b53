//! Offline stand-in for `crossbeam`: the `channel` module surface the
//! engine uses (`unbounded`, `Sender`, `Receiver` with blocking `iter`),
//! implemented over `std::sync::mpsc`, plus the `thread::scope` surface the
//! parallel evaluation driver uses, implemented over `std::thread::scope`.

#![deny(unsafe_code)]

/// Scoped threads, mirroring `crossbeam::thread`.
///
/// The real crate predates `std::thread::scope`; this shim keeps its
/// call shape — `scope(|s| …)` returns a `Result` and `Scope::spawn`
/// passes the scope back into the closure so workers can spawn siblings —
/// while delegating the actual lifetime plumbing to the standard library.
pub mod thread {
    /// Scope handle passed to the `scope` closure and to every spawned
    /// worker, mirroring `crossbeam::thread::Scope`.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Join handle of a scoped worker, mirroring
    /// `crossbeam::thread::ScopedJoinHandle`.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Waits for the worker to finish, returning its result (or the
        /// payload of its panic).
        ///
        /// # Errors
        ///
        /// Returns the boxed panic payload if the worker panicked.
        pub fn join(self) -> std::thread::Result<T> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a worker that may borrow from the enclosing scope. The
        /// closure receives the scope again (crossbeam's signature) so it
        /// can spawn further siblings.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let scope = Scope { inner: self.inner };
            ScopedJoinHandle { inner: self.inner.spawn(move || f(&scope)) }
        }
    }

    /// Runs `f` with a scope in which borrowing spawns are allowed; all
    /// workers are joined before `scope` returns.
    ///
    /// # Errors
    ///
    /// The real crossbeam reports unjoined workers' panics through the
    /// `Err` arm; `std::thread::scope` resumes those panics instead, so
    /// this shim always returns `Ok` — callers keep the idiomatic
    /// `.expect("scope")` without ever hitting it.
    #[allow(clippy::missing_panics_doc)]
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn scoped_workers_borrow_and_join_in_order() {
            let data = [1u64, 2, 3, 4];
            let doubled: Vec<u64> = scope(|s| {
                let handles: Vec<_> = data.iter().map(|&x| s.spawn(move |_| x * 2)).collect();
                handles.into_iter().map(|h| h.join().expect("worker")).collect()
            })
            .expect("scope");
            assert_eq!(doubled, vec![2, 4, 6, 8]);
        }

        #[test]
        fn workers_can_spawn_siblings() {
            let nested = scope(|s| {
                s.spawn(|s2| s2.spawn(|_| 41).join().expect("inner") + 1).join().expect("outer")
            })
            .expect("scope");
            assert_eq!(nested, 42);
        }
    }
}

/// Multi-producer channels, mirroring `crossbeam::channel`.
pub mod channel {
    use std::sync::mpsc;

    /// Error returned when the receiving side has hung up.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

    /// Sending half; clonable across threads.
    pub struct Sender<T> {
        inner: mpsc::Sender<T>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Self { inner: self.inner.clone() }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a message.
        ///
        /// # Errors
        ///
        /// Returns the message back if the receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner.send(value).map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    /// Receiving half.
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    impl<T> Receiver<T> {
        /// Blocking receive; `None` when all senders are gone.
        pub fn recv(&self) -> Option<T> {
            self.inner.recv().ok()
        }

        /// Blocking iterator that ends when all senders disconnect.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            self.inner.iter()
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender { inner: tx }, Receiver { inner: rx })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_receive_across_threads() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            let h = std::thread::spawn(move || {
                for i in 0..5 {
                    tx2.send(i).unwrap();
                }
            });
            for i in 0..5 {
                tx.send(100 + i).unwrap();
            }
            drop(tx);
            h.join().unwrap();
            let mut got: Vec<i32> = rx.iter().collect();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2, 3, 4, 100, 101, 102, 103, 104]);
        }

        #[test]
        fn send_fails_after_receiver_drop() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));
        }
    }
}
