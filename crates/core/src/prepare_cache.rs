//! Content-addressed, single-flight memo of campaign products.
//!
//! Adjacent cells of a campaign differ in one axis, yet a naive Prepare
//! rebuilds everything: the TTS render, the attack build (modulation,
//! power allocation, the array's emitted near field), the near field's
//! transforms, the leakage and the noise tables.  Each of those is a pure
//! function of a *sub-tuple* of the cell's axes, and each product names
//! that sub-tuple as a plain inputs struct (`UtteranceInputs`,
//! `AttackInputs`, `SpectrumInputs`, `PathInputs`, `LeakageInputs` and
//! `NoiseInputs` in [`crate::stages`], the detector's `DatasetConfig`,
//! plus [`DefaultRecognizer`]) implementing [`Product`].  The struct holds
//! exactly the fields its [`Product::build`] reads, and the cache key is
//! the struct's derived `Debug` rendering (range-vector-hashing style: the
//! key *is* the deterministic render of the determining inputs).  A build
//! that needs another product holds that product's inputs as a field and
//! fetches it through [`get`], so a key also covers what its build reads
//! second-hand.  A sweep along one axis therefore re-derives only what
//! that axis determines.
//!
//! It is the one memo layer for campaign work: it also holds the
//! default-corpus recognizer and every trained detector, so a process
//! enrolls and trains once, under the same switch, counters and bound.
//!
//! Soundness leans on the purity contract from the staged pipeline: a
//! trial is a pure function of `(spec, cell, seed)`, so equal keys imply
//! bit-identical products and archives stay `cmp`-identical with the
//! cache on or off, at any worker or shard count.  `Debug` renders floats
//! in their shortest round-trip form, so distinct inputs always produce
//! distinct keys.
//!
//! Lookups are single-flight.  The map lock only finds or inserts a key's
//! slot; the first misser builds under the slot's own lock, same-key
//! callers wait on it and count as hits, and distinct keys never contend.
//! Nested builds (leakage → spectrum → attack build → utterance) lock
//! slots in dependency order without the map lock, so they cannot
//! deadlock.  A build that returns `Err` or panics leaves no entry, so the
//! next caller rebuilds; poisoned locks are recovered, since no lock
//! guards a half-written value.
//!
//! Memory is bounded: finished entries are evicted least-recently-used by
//! byte estimate once the cache exceeds its capacity, a constant 512 MiB.
//! `IVC_PREPARE_CACHE=off` (or `0`) disables the cache entirely,
//! recognizer and detectors included; [`set_enabled`] does the same from
//! code (the byte-identity suite runs both ways and compares archives).
//! A value of the variable that does not parse prints one warning line
//! and keeps the cache on.
//!
//! Telemetry: every lookup increments `executor.prepare_cache_hit` or
//! `executor.prepare_cache_miss`, and hits additionally count the
//! product's `prepare.*_reused` counter, so `repro profile` shows cache
//! effectiveness per run.  A caller that blocks on another caller's
//! in-flight build records the wait as a `prepare.cache_wait` span and a
//! `prepare_cache.wait` count.

use std::any::Any;
use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

use crate::telemetry;
use crate::Result;
use ivc_speech::recognizer::Recognizer;

/// The byte bound: generous for workstation campaigns, far below the
/// size at which an orchestrator shard would notice.
const CAPACITY_BYTES: usize = 512 * 1024 * 1024;

/// The inputs of one cacheable product.  The implementing struct holds
/// exactly the fields [`build`](Product::build) reads, and its derived
/// `Debug` rendering is the cache key.
pub trait Product: Debug {
    /// What the build produces.
    type Output: Any + Send + Sync;
    /// The `prepare.*_reused` telemetry counter a cache hit bumps.
    const REUSED_COUNTER: &'static str;
    /// Approximate resident size of `output`, in bytes, for the LRU bound.
    fn byte_estimate(output: &Self::Output) -> usize;
    /// Builds the product from these inputs alone.
    fn build(&self) -> Result<Self::Output>;
}

/// The default-corpus [`Recognizer`]: enrollment has no varying inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefaultRecognizer;

impl Product for DefaultRecognizer {
    type Output = Recognizer;
    const REUSED_COUNTER: &'static str = "prepare.recognizer_reused";

    // One MFCC template per command: ~200 frames of ~40 coefficients.
    fn byte_estimate(recognizer: &Recognizer) -> usize {
        recognizer.num_templates() * 64 * 1024 + 256
    }

    fn build(&self) -> Result<Recognizer> {
        Ok(Recognizer::with_default_corpus()?)
    }
}

/// One key's cell: the type-erased product, `None` until its build lands.
/// The builder holds the lock across the build, so same-key callers wait.
type Slot = Arc<Mutex<Option<Arc<dyn Any + Send + Sync>>>>;

#[derive(Default)]
struct Entry {
    slot: Slot,
    /// `None` while the build is in flight (not counted, not evictable).
    bytes: Option<usize>,
    tick: u64,
}

#[derive(Default)]
struct CacheState {
    entries: HashMap<String, Entry>,
    total_bytes: usize,
    tick: u64,
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static WAITS: AtomicU64 = AtomicU64::new(0);

fn state() -> &'static Mutex<CacheState> {
    static STATE: OnceLock<Mutex<CacheState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(CacheState::default()))
}

/// Locks `mutex`, recovering it if a panicking thread poisoned it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `IVC_PREPARE_CACHE`: unset, `1`, `on` or `true` turn the cache on, and
/// `0`, `off` or `false` turn it off.  Any other value leaves it on and
/// comes with the warning that says so.
fn parse_enabled(value: Option<&str>) -> (bool, Option<String>) {
    match value {
        None | Some("1" | "on" | "true") => (true, None),
        Some("0" | "off" | "false") => (false, None),
        Some(other) => (
            true,
            Some(format!(
                "IVC_PREPARE_CACHE={other:?} is not one of 0, off, false, 1, on, true; \
                 the prepare cache stays on"
            )),
        ),
    }
}

/// The on/off switch, read from `IVC_PREPARE_CACHE` on first use: a
/// value `parse_enabled` does not recognise costs one stderr line.
fn enabled_flag() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| {
        let raw = std::env::var("IVC_PREPARE_CACHE").ok();
        let (enabled, warning) = parse_enabled(raw.as_deref());
        if let Some(warning) = warning {
            eprintln!("warning: {warning}");
        }
        AtomicBool::new(enabled)
    })
}

/// `true` when products are being reused.
pub fn is_enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Turns reuse on or off process-wide. Results never change — only
/// whether they are recomputed — so this is safe at any point; the
/// byte-identity suite toggles it between otherwise identical campaigns.
pub fn set_enabled(enabled: bool) {
    enabled_flag().store(enabled, Ordering::Relaxed);
}

/// Drops every cached product (counters are monotonic and unaffected).
/// Builds in flight finish and serve their waiters, but are not stored.
pub fn clear() {
    let mut guard = lock(state());
    guard.entries.clear();
    guard.total_bytes = 0;
}

/// A point-in-time view of the cache's effectiveness and footprint.
/// `hits`/`misses`/`evictions`/`waits` are monotonic over the process lifetime,
/// so concurrent tests can assert on deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (or a same-key build) since process
    /// start.
    pub hits: u64,
    /// Lookups that had to build since process start.
    pub misses: u64,
    /// Entries dropped by the LRU bound since process start.
    pub evictions: u64,
    /// Lookups that blocked on another caller's in-flight build since
    /// process start.
    pub waits: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Estimated bytes held right now.
    pub bytes: usize,
}

/// Current cache statistics.
pub fn stats() -> CacheStats {
    let guard = lock(state());
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        waits: WAITS.load(Ordering::Relaxed),
        entries: guard.entries.values().filter(|e| e.bytes.is_some()).count(),
        bytes: guard.total_bytes,
    }
}

/// Evicts finished entries, least recently used first, until the cache
/// fits its bound.  `keep` (the entry just stored) always survives, even
/// when it alone exceeds the bound.
fn evict_if_needed(state: &mut CacheState, keep: &str) {
    while state.total_bytes > CAPACITY_BYTES {
        let victim = state
            .entries
            .iter()
            .filter(|(k, e)| e.bytes.is_some() && k.as_str() != keep)
            .min_by_key(|(_, e)| e.tick)
            .map(|(k, _)| k.clone());
        let Some(key) = victim else { break };
        if let Some(bytes) = state.entries.remove(&key).and_then(|e| e.bytes) {
            state.total_bytes -= bytes;
            EVICTIONS.fetch_add(1, Ordering::Relaxed);
            telemetry::add_count("executor.prepare_cache_evicted", 1);
        }
    }
}

/// `key`'s entry while it still holds `slot` (a failed build or [`clear`]
/// may have dropped it).
fn entry_of<'s>(state: &'s mut CacheState, key: &str, slot: &Slot) -> Option<&'s mut Entry> {
    state
        .entries
        .get_mut(key)
        .filter(|e| Arc::ptr_eq(&e.slot, slot))
}

/// Dropped when a build returns `Err` or unwinds (forgotten on success):
/// unlists the in-flight entry before the slot unlocks, so waiters retry.
struct FailedBuild<'a>(&'a str, &'a Slot);

impl Drop for FailedBuild<'_> {
    fn drop(&mut self) {
        let mut state = lock(state());
        if entry_of(&mut state, self.0, self.1).is_some() {
            state.entries.remove(self.0);
        }
    }
}

/// The product `inputs` stand for: served from the cache, or built once
/// by [`Product::build`] and stored.  Concurrent callers for the same
/// inputs wait for that one build and share its `Arc` (see the module docs
/// for the single-flight and failure contract).
pub fn get<P: Product>(inputs: &P) -> Result<Arc<P::Output>> {
    get_or_build(
        &format!("{inputs:?}"),
        P::REUSED_COUNTER,
        P::byte_estimate,
        || inputs.build(),
    )
}

/// Looks `key` up; on a miss, runs `build` once, stores the product and
/// returns it.
fn get_or_build<T: Any + Send + Sync>(
    key: &str,
    reused_counter: &'static str,
    byte_estimate: fn(&T) -> usize,
    build: impl FnOnce() -> Result<T>,
) -> Result<Arc<T>> {
    if !is_enabled() {
        return Ok(Arc::new(build()?));
    }
    loop {
        let slot = {
            let mut state = lock(state());
            state.tick += 1;
            let tick = state.tick;
            let entry = state.entries.entry(key.to_string()).or_default();
            entry.tick = tick;
            Arc::clone(&entry.slot)
        };
        // Only a caller that finds the slot locked blocks: almost always
        // on another caller's in-flight build (a hit holds the lock only
        // to clone the product).
        let mut cell = match slot.try_lock() {
            Ok(cell) => cell,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                let _span = telemetry::span("prepare.cache_wait");
                WAITS.fetch_add(1, Ordering::Relaxed);
                telemetry::add_count("prepare_cache.wait", 1);
                lock(&slot)
            }
        };
        if let Some(product) = cell.as_ref() {
            HITS.fetch_add(1, Ordering::Relaxed);
            telemetry::add_count("executor.prepare_cache_hit", 1);
            telemetry::add_count(reused_counter, 1);
            return Arc::clone(product).downcast::<T>().map_err(|_| {
                format!("prepare cache key '{key}' holds another product type").into()
            });
        }
        if entry_of(&mut lock(state()), key, &slot).is_none() {
            // The build this caller waited on failed; look the key up anew.
            continue;
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        telemetry::add_count("executor.prepare_cache_miss", 1);
        let failed = FailedBuild(key, &slot);
        let value = Arc::new(build()?);
        std::mem::forget(failed);
        let bytes = byte_estimate(&value);
        *cell = Some(Arc::clone(&value) as _);
        let mut state = lock(state());
        if let Some(entry) = entry_of(&mut state, key, &slot) {
            entry.bytes = Some(bytes);
            state.total_bytes += bytes;
            evict_if_needed(&mut state, key);
        }
        return Ok(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::{AttackInputs, PathInputs, Source, UtteranceInputs};
    use ivc_dsp::signal::Signal;
    use ivc_speech::cache::TalkerKey;

    fn signal(len: usize) -> Signal {
        Signal::new(vec![0.0; len], 48_000.0).expect("valid signal")
    }

    /// A test product under `key`, built by `build`.
    fn get_signal(key: &str, build: impl FnOnce() -> Result<Signal>) -> Result<Arc<Signal>> {
        get_or_build(key, "prepare.test_reused", |s: &Signal| s.len() * 8, build)
    }

    fn contains(key: &str) -> bool {
        lock(state()).entries.contains_key(key)
    }

    #[test]
    fn the_cache_switch_parses_loudly() {
        for (value, on) in [
            (None, true),
            (Some("1"), true),
            (Some("on"), true),
            (Some("true"), true),
            (Some("0"), false),
            (Some("off"), false),
            (Some("false"), false),
        ] {
            assert_eq!(parse_enabled(value), (on, None), "{value:?}");
        }
        for value in ["no", "OFF", ""] {
            let (on, warning) = parse_enabled(Some(value));
            assert!(on, "{value:?}");
            let warning = warning.expect("an unrecognised value warns");
            assert!(warning.contains("IVC_PREPARE_CACHE="), "{warning}");
            assert!(warning.contains(&format!("{value:?}")), "{warning}");
            assert!(warning.contains("stays on"), "{warning}");
        }
    }

    #[test]
    fn lru_eviction_respects_the_byte_bound() {
        // Exercise the eviction helper directly, so the test does not
        // depend on what else this binary has cached.
        let mut state = CacheState::default();
        for i in 0..4 {
            state.tick += 1;
            let tick = state.tick;
            state.entries.insert(
                format!("k{i}"),
                Entry {
                    bytes: Some(CAPACITY_BYTES / 2),
                    tick,
                    ..Entry::default()
                },
            );
            state.total_bytes += CAPACITY_BYTES / 2;
        }
        // An in-flight entry is never a victim.
        state
            .entries
            .insert("pending".to_string(), Entry::default());
        evict_if_needed(&mut state, "k3");
        assert!(state.total_bytes <= CAPACITY_BYTES);
        // The entry just stored always survives.
        assert!(state.entries.contains_key("k3"));
        assert!(state.entries.contains_key("pending"));
    }

    // The counters are process-wide and other tests in this binary run
    // Prepare stages concurrently, so stats deltas are checked as lower
    // bounds; the build count pins the single flight exactly.  The result
    // holds under any interleaving; the slow build only widens the window
    // in which a design without single flight would build twice.
    #[test]
    fn same_key_callers_share_one_build() {
        set_enabled(true);
        let key = "test|single-flight";
        let builds = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(8);
        let before = stats();
        let values: Vec<Arc<Signal>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        get_signal(key, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            Ok(signal(16))
                        })
                        .expect("build succeeds")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let after = stats();
        assert_eq!(builds.load(Ordering::SeqCst), 1, "build must run once");
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])));
        assert!(after.misses - before.misses >= 1);
        assert!(after.hits - before.hits >= 7);
        // The seven callers that found the build in flight waited on it.
        assert!(after.waits - before.waits >= 1);
        assert!(contains(key));
    }

    #[test]
    fn a_panicking_build_leaves_the_key_rebuildable() {
        set_enabled(true);
        let key = "test|panicking-build";
        let outcome = std::panic::catch_unwind(|| get_signal(key, || panic!("build failed")));
        assert!(outcome.is_err());
        assert!(!contains(key), "a panicked build must leave no entry");
        // The cache stays usable: stats, other keys and the same key.
        let before = stats();
        let other =
            get_signal("test|after-panic", || Ok(signal(4))).expect("other keys still build");
        assert_eq!(other.len(), 4);
        let rebuilt = get_signal(key, || Ok(signal(8))).expect("rebuilds");
        assert_eq!(rebuilt.len(), 8);
        assert!(stats().misses - before.misses >= 2);
        assert!(contains(key));
    }

    #[test]
    fn a_failed_build_leaves_no_entry_and_wakes_its_waiters() {
        set_enabled(true);
        let key = "test|failed-build";
        let (building, started) = std::sync::mpsc::channel();
        let (failed, waited) = std::thread::scope(|scope| {
            let failing = scope.spawn(move || {
                get_signal(key, || {
                    building.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    Err("no product".into())
                })
            });
            // The waiter starts only once the failing build holds the slot,
            // so it either waits on that build or arrives after it failed;
            // both ways it must build afresh.
            started.recv().unwrap();
            let waiter = scope.spawn(|| get_signal(key, || Ok(signal(2))));
            (failing.join().unwrap(), waiter.join().unwrap())
        });
        assert!(failed.is_err());
        assert_eq!(waited.expect("the waiter builds afresh").len(), 2);
        let key = "test|failed-build-alone";
        let failed = get_signal(key, || Err("no".into()));
        assert!(failed.is_err());
        assert!(!contains(key), "a failed build must leave no entry");
    }

    #[test]
    fn keys_render_the_determining_sub_tuple_only() {
        let command = ivc_speech::commands::corpus()[0].clone();
        let voice = UtteranceInputs {
            command,
            talker: TalkerKey::Canonical,
        };
        let attack = AttackInputs {
            voice: voice.clone(),
            max_voice_duration_s: 0.8,
            shadow_suppression: 0.0,
            num_elements: 8,
            total_power_w: 40.0,
            carrier_hz: 40_000.0,
        };
        let key = |inputs: &dyn Debug| format!("{inputs:?}");
        // Each family's key names its struct, so families never collide.
        assert!(key(&voice).starts_with("UtteranceInputs {"));
        assert!(key(&attack).starts_with("AttackInputs {"));
        assert_eq!(key(&DefaultRecognizer), "DefaultRecognizer");
        // A dependency's inputs are part of the dependent's key.
        let path = PathInputs {
            source: Source::Attack(attack.clone()),
            distance_m: 2.0,
            room: None,
            env: Default::default(),
        };
        assert!(key(&path).contains(&key(&attack)));
        // Distance is a path field: paths at two distances do not share.
        let farther = PathInputs {
            distance_m: 3.0,
            ..path.clone()
        };
        assert_ne!(key(&path), key(&farther));
        // Floats render in their shortest round-trip form: nearby values
        // never share a key.
        let nudged = AttackInputs {
            total_power_w: f64::from_bits(40.0f64.to_bits() + 1),
            ..attack.clone()
        };
        assert_ne!(key(&attack), key(&nudged));
    }
}
