//! SIGTERM handling without a signals crate.
//!
//! The only async-signal-safe thing the handler does is store into an
//! `AtomicBool`. The handler does not interrupt the accept loop's
//! blocking `accept` (it restarts), so `Server::run` starts a watcher
//! thread that checks the flag every few tens of milliseconds and, once
//! it is set, starts the same drain `POST /shutdown` does. On non-Unix
//! targets installation is a no-op and shutdown is reachable only
//! through `POST /shutdown`.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM or SIGINT has arrived. `POST /shutdown` sets the
/// server's own draining flag instead.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod unix {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGTERM: i32 = 15;
    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal(2)` with a handler that only stores into an
        // atomic is async-signal-safe; we never inspect the return value
        // because failure just leaves the default disposition in place.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

/// Installs SIGTERM/SIGINT handlers that trip the shutdown flag.
/// No-op on non-Unix targets.
pub fn install() {
    #[cfg(unix)]
    unix::install();
}
