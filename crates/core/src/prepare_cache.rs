//! Content-addressed, single-flight memo of campaign products.
//!
//! Adjacent cells of a campaign differ in one axis, yet a naive Prepare
//! rebuilds everything: the TTS render, the attack build (modulation,
//! power allocation, the array's emitted near field), the room instance
//! and both propagation runs.  Each of those is a pure function of a
//! *sub-tuple* of the cell's axes — an utterance render depends only on
//! `(command, talker)`, an attack build on `(command, delivery,
//! suppression, cap, baseband)`, a propagation on its source, geometry
//! and environment.  This module hashes those sub-tuples into string keys
//! (range-vector-hashing style: the key *is* the deterministic render of
//! the determining inputs) and memoises the products process-wide, so a
//! sweep along one axis re-derives only what that axis determines.
//!
//! It is the one memo layer for campaign work: it also holds the
//! default-corpus recognizer and every trained detector, so a process
//! enrolls and trains once, under the same switch, counters and bound.
//!
//! Soundness leans on the purity contract from the staged pipeline: a
//! trial is a pure function of `(spec, cell, seed)`, so equal keys imply
//! bit-identical products and archives stay `cmp`-identical with the
//! cache on or off, at any worker or shard count.  Keys render floats
//! with `{:?}` (shortest round-trip representation), so distinct inputs
//! always produce distinct keys.
//!
//! Lookups are single-flight.  The map lock only finds or inserts a key's
//! slot; the first misser builds under the slot's own lock, same-key
//! callers wait on it and count as hits, and distinct keys never contend.
//! Nested builds (propagation → utterance) lock slots in dependency order
//! without the map lock, so they cannot deadlock.  A build that returns
//! `Err` or panics leaves no entry, so the next caller rebuilds; poisoned
//! locks are recovered, since no lock guards a half-written value.
//!
//! Memory is bounded: finished entries are evicted least-recently-used by
//! byte estimate once the cache exceeds its capacity (default 512 MiB,
//! `IVC_PREPARE_CACHE_MB` overrides).  `IVC_PREPARE_CACHE=off` (or `0`)
//! disables the cache entirely, recognizer and detectors included;
//! [`set_enabled`] does the same from code (the byte-identity suite runs
//! both ways and compares archives).
//!
//! Telemetry: every lookup increments `executor.prepare_cache_hit` or
//! `executor.prepare_cache_miss`, and hits additionally count the
//! per-product `prepare.*_reused` counter, so `repro profile` shows
//! cache effectiveness per run.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::scenario::Scenario;
use crate::telemetry;
use crate::Result;
use ivc_attack::baseband::BasebandConfig;
use ivc_attack::leakage::LeakageReport;
use ivc_defense::classifier::LogisticRegression;
use ivc_defense::dataset::DatasetConfig;
use ivc_dsp::signal::Signal;
use ivc_room::RoomInstance;
use ivc_speech::cache::TalkerKey;
use ivc_speech::commands::VoiceCommand;
use ivc_speech::recognizer::Recognizer;
use ivc_speech::synthesis::Utterance;

/// Default capacity: generous for workstation campaigns, far below the
/// size at which an orchestrator shard would notice.
const DEFAULT_CAPACITY_BYTES: usize = 512 * 1024 * 1024;

/// The speaker-side products of one attack build, cached as a unit: the
/// emitted near field referenced to 1 m, the array aperture and the
/// electrical budget the allocation could not place.
#[derive(Debug, Clone)]
pub struct AttackBuild {
    /// Superposed element emissions at the 1 m reference.
    pub near_field_at_1m: Signal,
    /// Physical aperture of the emitting array, in metres.
    pub aperture_m: f64,
    /// Unplaced electrical budget, in watts.
    pub power_shortfall_w: f64,
}

/// Which product a cache entry holds (drives the `prepare.*_reused`
/// telemetry counter names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProductKind {
    /// A full TTS render for one `(command, talker)`.
    Utterance,
    /// An [`AttackBuild`].
    AttackBuild,
    /// A [`RoomInstance`] (geometry + materials for one room sub-tuple).
    Rir,
    /// A propagated pressure waveform at the device port.
    Propagation,
    /// A bystander [`LeakageReport`].
    Leakage,
    /// The default-corpus [`Recognizer`].
    Recognizer,
    /// A trained detector ([`LogisticRegression`]).
    Detector,
}

impl ProductKind {
    fn reused_counter(self) -> &'static str {
        match self {
            ProductKind::Utterance => "prepare.utterance_reused",
            ProductKind::AttackBuild => "prepare.attack_build_reused",
            ProductKind::Rir => "prepare.rir_reused",
            ProductKind::Propagation => "prepare.propagation_reused",
            ProductKind::Leakage => "prepare.leakage_reused",
            ProductKind::Recognizer => "prepare.recognizer_reused",
            ProductKind::Detector => "prepare.detector_reused",
        }
    }
}

mod sealed {
    pub trait Sealed {}
}

/// Types the cache can hold. Sealed to this crate: the set of products is
/// exactly the Prepare stage's sub-products plus the campaign set-up ones.
pub trait Cacheable: sealed::Sealed + Any + Send + Sync {
    /// Approximate resident size, in bytes, for the LRU bound.
    fn byte_estimate(&self) -> usize;
}

macro_rules! cacheable {
    ($($product:ty => |$it:ident| $bytes:expr;)*) => {$(
        impl sealed::Sealed for $product {}
        impl Cacheable for $product {
            fn byte_estimate(&self) -> usize {
                let $it = self;
                $bytes
            }
        }
    )*};
}

cacheable! {
    Utterance => |u| u.signal.len() * 8 + u.word_boundaries.len() * 32 + u.text.len() + 128;
    Signal => |s| s.len() * 8 + 64;
    AttackBuild => |a| a.near_field_at_1m.len() * 8 + 128;
    RoomInstance => |r| r.occluders.len() * 128 + 512;
    LeakageReport => |_l| 512;
    // One MFCC template per command: ~200 frames of ~40 coefficients.
    Recognizer => |r| r.num_templates() * 64 * 1024 + 256;
    // Weights plus the per-feature means and deviations.
    LogisticRegression => |m| m.weights().len() * 3 * 8 + 128;
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

fn state() -> &'static Mutex<CacheState> {
    static STATE: OnceLock<Mutex<CacheState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(CacheState::default()))
}

/// Locks `mutex`, recovering it if a panicking thread poisoned it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn enabled_flag() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| {
        let on = !matches!(
            std::env::var("IVC_PREPARE_CACHE").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        );
        AtomicBool::new(on)
    })
}

fn capacity_bytes() -> usize {
    static CAPACITY: OnceLock<usize> = OnceLock::new();
    *CAPACITY.get_or_init(|| {
        std::env::var("IVC_PREPARE_CACHE_MB")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|mb| mb.saturating_mul(1024 * 1024))
            .unwrap_or(DEFAULT_CAPACITY_BYTES)
            .max(1024 * 1024)
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
/// `hits`/`misses`/`evictions` are monotonic over the process lifetime,
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
        entries: guard.entries.values().filter(|e| e.bytes.is_some()).count(),
        bytes: guard.total_bytes,
    }
}

/// Evicts finished entries, least recently used first, until the cache
/// fits its bound.  `keep` (the entry just stored) always survives, even
/// when it alone exceeds the bound.
fn evict_if_needed(state: &mut CacheState, keep: &str) {
    let cap = capacity_bytes();
    while state.total_bytes > cap {
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

/// Looks `key` up; on a miss, runs `build` once, stores the product and
/// returns it.  Concurrent callers for the same key wait for that one
/// build and share its `Arc` (see the module docs for the single-flight
/// and failure contract).
pub fn get_or_build<T: Cacheable>(
    kind: ProductKind,
    key: &str,
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
        let mut cell = lock(&slot);
        if let Some(product) = cell.as_ref() {
            HITS.fetch_add(1, Ordering::Relaxed);
            telemetry::add_count("executor.prepare_cache_hit", 1);
            telemetry::add_count(kind.reused_counter(), 1);
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
        let bytes = value.byte_estimate();
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

// ---------------------------------------------------------------------------
// Key derivation. Public so the key-collision property tests can fuzz the
// exact functions production uses. Every function renders precisely the
// sub-tuple of inputs its product depends on — nothing more (reuse across
// the other axes), nothing less (no cross-scenario collisions).
// ---------------------------------------------------------------------------

/// Key of a full TTS render: `(command, talker, synthesis rate)`.
pub fn utterance_key(command: &VoiceCommand, talker: &TalkerKey, sample_rate_hz: f64) -> String {
    format!(
        "utt|c{:?}|{}|{talker:?}|fs={sample_rate_hz:?}",
        command.id, command.text
    )
}

/// Key of an attack build: the command and cap that shape the baseband,
/// the suppression that pre-compensates it, the delivery that sets
/// carrier/power/element count, and the modulation configuration.
/// Distance, device, room and noise do *not* belong here — the emitted
/// near field is independent of them, which is exactly what lets a
/// distance sweep reuse one build.
pub fn attack_build_key(
    command: &VoiceCommand,
    scenario: &Scenario,
    baseband: &BasebandConfig,
) -> String {
    format!(
        "attack|c{:?}|{}|cap={:?}|sup={:?}|{:?}|{baseband:?}",
        command.id,
        command.text,
        scenario.max_voice_duration_s,
        scenario.shadow_suppression,
        scenario.delivery,
    )
}

/// Key of a legitimate talker's 1 m-referenced source: `(command,
/// variant, cap, talker level)`.
pub fn legitimate_source_key(
    command: &VoiceCommand,
    variant: usize,
    cap_s: f64,
    talker_spl_db: f64,
) -> String {
    format!(
        "legit|c{:?}|{}|v{variant}|cap={cap_s:?}|spl={talker_spl_db:?}",
        command.id, command.text
    )
}

/// Key of a room instantiation: `(preset, target distance, bystander
/// distance)` — the geometry sub-tuple.
pub fn room_key(
    preset: ivc_room::RoomPreset,
    distance_m: f64,
    bystander_distance_m: f64,
) -> String {
    format!("room|{preset:?}|d={distance_m:?}|b={bystander_distance_m:?}")
}

fn room_part(scenario: &Scenario) -> String {
    match scenario.room {
        None => "free".to_string(),
        Some(preset) => room_key(preset, scenario.distance_m, scenario.bystander_distance_m),
    }
}

/// Key of the propagation from a source (identified by its own key) to
/// the device port: source, aperture, distance, room geometry, air.
pub fn target_propagation_key(source_key: &str, aperture_m: f64, scenario: &Scenario) -> String {
    format!(
        "prop|{source_key}|ap={aperture_m:?}|d={:?}|{}|env={:?}",
        scenario.distance_m,
        room_part(scenario),
        scenario.env,
    )
}

/// Key of the bystander propagation + leakage analysis: source, bystander
/// distance, room preset, air.  The target distance is *not* part of it:
/// the bystander's room path (`RoomInstance::bystander_rir`) depends only
/// on the room, the source and the bystander, so every target distance in
/// a room shares one leakage build.
pub fn leakage_key(source_key: &str, scenario: &Scenario) -> String {
    let room = match scenario.room {
        None => "free".to_string(),
        Some(preset) => format!("room|{preset:?}"),
    };
    format!(
        "leak|{source_key}|b={:?}|{room}|env={:?}",
        scenario.bystander_distance_m, scenario.env,
    )
}

/// Key of the default-corpus recognizer (enrollment has no varying inputs).
pub fn default_recognizer_key() -> String {
    "recognizer|default-corpus".to_string()
}

/// Key of a trained detector: its training corpus configuration (training
/// always runs with the constant `TrainingConfig::default()`).
pub fn detector_key(config: &DatasetConfig) -> String {
    format!("detector|{config:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(len: usize) -> Signal {
        Signal::new(vec![0.0; len], 48_000.0).expect("valid signal")
    }

    fn contains(key: &str) -> bool {
        lock(state()).entries.contains_key(key)
    }

    #[test]
    fn lru_eviction_respects_the_byte_bound() {
        // Capacity is process-wide (env-configured); exercise the eviction
        // helper directly so the test is independent of the environment.
        let mut state = CacheState::default();
        for i in 0..4 {
            state.tick += 1;
            let tick = state.tick;
            state.entries.insert(
                format!("k{i}"),
                Entry {
                    bytes: Some(capacity_bytes() / 2),
                    tick,
                    ..Entry::default()
                },
            );
            state.total_bytes += capacity_bytes() / 2;
        }
        // An in-flight entry is never a victim.
        state
            .entries
            .insert("pending".to_string(), Entry::default());
        evict_if_needed(&mut state, "k3");
        assert!(state.total_bytes <= capacity_bytes());
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
                        get_or_build(ProductKind::Propagation, key, || {
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
        assert!(contains(key));
    }

    #[test]
    fn a_panicking_build_leaves_the_key_rebuildable() {
        set_enabled(true);
        let key = "test|panicking-build";
        let outcome = std::panic::catch_unwind(|| {
            get_or_build::<Signal>(ProductKind::Propagation, key, || panic!("build failed"))
        });
        assert!(outcome.is_err());
        assert!(!contains(key), "a panicked build must leave no entry");
        // The cache stays usable: stats, other keys and the same key.
        let before = stats();
        let other = get_or_build(ProductKind::Propagation, "test|after-panic", || {
            Ok(signal(4))
        })
        .expect("other keys still build");
        assert_eq!(other.len(), 4);
        let rebuilt =
            get_or_build(ProductKind::Propagation, key, || Ok(signal(8))).expect("rebuilds");
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
                get_or_build::<Signal>(ProductKind::Propagation, key, || {
                    building.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    Err("no product".into())
                })
            });
            // The waiter starts only once the failing build holds the slot,
            // so it either waits on that build or arrives after it failed;
            // both ways it must build afresh.
            started.recv().unwrap();
            let waiter =
                scope.spawn(|| get_or_build(ProductKind::Propagation, key, || Ok(signal(2))));
            (failing.join().unwrap(), waiter.join().unwrap())
        });
        assert!(failed.is_err());
        assert_eq!(waited.expect("the waiter builds afresh").len(), 2);
        let key = "test|failed-build-alone";
        let failed = get_or_build::<Signal>(ProductKind::Propagation, key, || Err("no".into()));
        assert!(failed.is_err());
        assert!(!contains(key), "a failed build must leave no entry");
    }

    #[test]
    fn keys_render_the_determining_sub_tuple_only() {
        let command = ivc_speech::commands::corpus()[0].clone();
        let a = Scenario::default_attack();
        let mut farther = a.clone();
        farther.distance_m += 1.0;
        // Distance is not an attack-build axis: builds are shared.
        assert_eq!(
            attack_build_key(&command, &a, &BasebandConfig::default()),
            attack_build_key(&command, &farther, &BasebandConfig::default()),
        );
        // But it is a propagation axis: propagations are not.
        assert_ne!(
            target_propagation_key("src", 0.1, &a),
            target_propagation_key("src", 0.1, &farther),
        );
        // In a room, the target distance does not reach the bystander's
        // leakage, but the bystander distance does.
        let mut in_room = a.clone();
        in_room.room = Some(ivc_room::RoomPreset::Office);
        let mut in_room_farther = in_room.clone();
        in_room_farther.distance_m += 1.0;
        let mut bystander_farther = in_room.clone();
        bystander_farther.bystander_distance_m += 0.5;
        assert_eq!(
            leakage_key("src", &in_room),
            leakage_key("src", &in_room_farther),
        );
        assert_ne!(
            leakage_key("src", &in_room),
            leakage_key("src", &bystander_farther),
        );
        assert_ne!(leakage_key("src", &a), leakage_key("src", &in_room));
    }
}
