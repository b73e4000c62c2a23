//! The rank check of debug builds: which nestings it refuses, that its
//! panic names both sites, and that it follows guards dropped in any order,
//! calls, closures and condition-variable waits.

#![cfg(debug_assertions)]

use lock::{Condvar, Mutex, Rank, RwLock};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// The panic message of `f`, or `None` when it returns.
fn panic_of(f: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
    Some(match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast::<&str>()
            .map_or_else(|_| String::new(), |s| s.to_string()),
    })
}

fn site(line: u32) -> String {
    format!("{}:{line}:", file!())
}

#[test]
fn higher_then_lower_panics_naming_both_sites() {
    let low = Mutex::new(Rank::TimeStoreState, ());
    let high = Mutex::new(Rank::LogTail, ());
    let outer = line!() + 3;
    let inner = line!() + 3;
    let msg = panic_of(|| {
        let _high = high.lock();
        let _low = low.lock();
    })
    .expect("TimeStoreState under LogTail must panic");
    assert!(
        msg.contains("TimeStoreState") && msg.contains("LogTail"),
        "{msg}"
    );
    assert!(msg.contains(&site(outer)), "{msg} names no {}", site(outer));
    assert!(msg.contains(&site(inner)), "{msg} names no {}", site(inner));
    // The refused lock was never pushed, and unwinding popped the other.
    let _low = low.lock();
    let _high = high.lock();
}

#[test]
fn lower_then_higher_passes() {
    let low = Mutex::new(Rank::TimeStoreState, 1);
    let high = Mutex::new(Rank::LogTail, 2);
    let a = low.lock();
    let b = high.lock();
    assert_eq!(*a + *b, 3);
}

#[test]
fn guards_dropped_before_a_lower_rank_or_out_of_order_pass() {
    let low = Mutex::new(Rank::GraphStore, ());
    let mid = Mutex::new(Rank::TimeStoreState, ());
    let high = Mutex::new(Rank::LogTail, ());
    drop(high.lock());
    drop(low.lock());
    // Out of order: the lower guard goes first.
    let a = low.lock();
    let b = mid.lock();
    drop(a);
    let c = high.lock();
    drop(b);
    drop(c);
    let _a = low.lock();
    let _c = high.lock();
}

#[test]
fn an_out_of_order_guard_drop_keeps_the_rest_held() {
    let low = Mutex::new(Rank::GraphStore, ());
    let high = Mutex::new(Rank::LogTail, ());
    let a = low.lock();
    let _b = high.lock();
    drop(a);
    // LogTail is still held: GraphStore may not be taken again under it.
    assert!(panic_of(|| drop(low.lock())).is_some());
}

/// Takes `m`, as a storage call would deep inside some other crate.
fn take(m: &Mutex<()>) {
    drop(m.lock());
}

#[test]
fn a_lower_rank_taken_in_a_called_function_or_closure_panics() {
    let low = Mutex::new(Rank::PageStore, ());
    let high = Mutex::new(Rank::SimVfs, ());
    let via_call = panic_of(|| {
        let _high = high.lock();
        take(&low);
    });
    assert!(via_call.is_some_and(|m| m.contains("PageStore")));
    let work: Box<dyn Fn()> = Box::new(|| drop(low.lock()));
    let via_closure = panic_of(|| {
        let _high = high.lock();
        work();
    });
    assert!(via_closure.is_some_and(|m| m.contains("PageStore")));
}

#[test]
fn two_locks_of_one_rank_nested_panic() {
    let one = Mutex::new(Rank::PageStore, ());
    let other = Mutex::new(Rank::PageStore, ());
    assert!(panic_of(|| {
        let _one = one.lock();
        let _other = other.lock();
    })
    .is_some());
    // A read counts as holding the rank.
    let table = RwLock::new(Rank::Interner, ());
    assert!(panic_of(|| {
        let _first = table.read();
        let _second = table.read();
    })
    .is_some());
}

#[test]
fn a_condvar_wait_returns_with_its_rank_held() {
    let slot = Mutex::new(Rank::CommitSlot, false);
    let same = Mutex::new(Rank::CommitSlot, ());
    let higher = Mutex::new(Rank::Registry, ());
    let moved = Condvar::new();
    let guard = slot.lock();
    let guard = moved.wait_timeout(guard, Duration::from_millis(1));
    assert!(!*guard);
    assert!(panic_of(|| drop(same.lock())).is_some());
    drop(higher.lock());
    drop(guard);
    drop(same.lock());
}
