//! The miss tape: live miss sources drawn once, however many runs read them.

use memscale_types::ids::AppId;
use memscale_workloads::{MissEvent, MissSource};
use std::sync::{Arc, Mutex};

/// One app's live source and every event drawn from it so far.
#[derive(Debug)]
struct AppTape {
    source: Box<dyn MissSource + Send>,
    events: Vec<MissEvent>,
}

/// A generate-once recording of live miss sources, one per app.
///
/// Recording runs read the tape through [`MissTape::cursors`]: a cursor
/// replays the events drawn so far and draws from its app's live source
/// only past the tape's end, appending what it draws. Every run at one seed
/// reads a prefix of the same deterministic per-app stream, so a run on the
/// tape sees exactly the events a fresh live source would have given it,
/// the tape ends up holding the longest prefix any run consumed, and each
/// event is generated exactly once. [`MissTape::finish`] continues the same
/// sources for the margin.
#[derive(Debug)]
pub struct MissTape {
    apps: Vec<Arc<Mutex<AppTape>>>,
}

impl MissTape {
    /// A tape over `sources`, one live source per app, with nothing drawn.
    pub fn new(sources: Vec<Box<dyn MissSource + Send>>) -> Self {
        MissTape {
            apps: sources
                .into_iter()
                .map(|source| {
                    Arc::new(Mutex::new(AppTape {
                        source,
                        events: Vec::new(),
                    }))
                })
                .collect(),
        }
    }

    /// Mints one cursor per app, positioned at the start of the tape.
    pub fn cursors(&self) -> Vec<Box<dyn MissSource + Send>> {
        self.apps
            .iter()
            .map(|tape| {
                let app = lock(tape).source.app();
                Box::new(TapeCursor {
                    app,
                    tape: Arc::clone(tape),
                    pos: 0,
                }) as Box<dyn MissSource + Send>
            })
            .collect()
    }

    /// Draws `margin_pct` percent more of each app's events (with a
    /// 64-event floor) from its live source, so replays slower than any
    /// recording run still fit, and returns the per-app streams. A source
    /// that runs dry ends its stream early.
    pub fn finish(self, margin_pct: usize) -> Vec<Vec<MissEvent>> {
        self.apps
            .iter()
            .map(|tape| {
                let mut tape = lock(tape);
                let AppTape { source, events } = &mut *tape;
                let extra = events.len().saturating_mul(margin_pct) / 100 + 64;
                events.extend(std::iter::from_fn(|| source.next_event()).take(extra));
                std::mem::take(events)
            })
            .collect()
    }
}

fn lock(tape: &Mutex<AppTape>) -> std::sync::MutexGuard<'_, AppTape> {
    tape.lock().expect("miss tape lock poisoned")
}

/// One app's replay cursor over a [`MissTape`].
#[derive(Debug)]
struct TapeCursor {
    app: AppId,
    tape: Arc<Mutex<AppTape>>,
    pos: usize,
}

impl MissSource for TapeCursor {
    fn app(&self) -> AppId {
        self.app
    }

    fn next_event(&mut self) -> Option<MissEvent> {
        let mut tape = lock(&self.tape);
        if self.pos == tape.events.len() {
            let ev = tape.source.next_event()?;
            tape.events.push(ev);
        }
        let ev = tape.events[self.pos];
        self.pos += 1;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memscale_types::address::PhysAddr;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A live source yielding event `i` on its `i`-th draw and counting its
    /// draws.
    #[derive(Debug)]
    struct Counting(Arc<AtomicUsize>);

    fn ev(i: usize) -> MissEvent {
        MissEvent {
            gap_instructions: i as u64 + 1,
            addr: PhysAddr::from_cache_line(i as u64),
            writeback: None,
        }
    }

    impl MissSource for Counting {
        fn app(&self) -> AppId {
            AppId(0)
        }

        fn next_event(&mut self) -> Option<MissEvent> {
            Some(ev(self.0.fetch_add(1, Ordering::Relaxed)))
        }
    }

    #[test]
    fn each_event_is_drawn_once_and_later_cursors_replay_it() {
        let draws = Arc::new(AtomicUsize::new(0));
        let tape = MissTape::new(vec![Box::new(Counting(Arc::clone(&draws)))]);
        let pull = |cursor: &mut Box<dyn MissSource + Send>, n: usize| {
            (0..n)
                .map(|_| cursor.next_event().unwrap())
                .collect::<Vec<_>>()
        };
        let mut first = tape.cursors().remove(0);
        assert_eq!(pull(&mut first, 5), (0..5).map(ev).collect::<Vec<_>>());
        assert_eq!(draws.load(Ordering::Relaxed), 5);

        // A second cursor replays the first one's events, then extends.
        let mut second = tape.cursors().remove(0);
        assert_eq!(pull(&mut second, 8), (0..8).map(ev).collect::<Vec<_>>());
        assert_eq!(draws.load(Ordering::Relaxed), 8);

        // The first cursor catches up on the tape without drawing again.
        assert_eq!(pull(&mut first, 3), (5..8).map(ev).collect::<Vec<_>>());
        assert_eq!(draws.load(Ordering::Relaxed), 8);

        // The margin continues the same source: 50 % of 8, plus 64.
        assert_eq!(tape.finish(50), vec![(0..76).map(ev).collect::<Vec<_>>()]);
        assert_eq!(draws.load(Ordering::Relaxed), 76);
    }
}
