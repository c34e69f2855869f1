//! Seeded inputs: keys, self-checking values, and each client's op
//! stream. Nothing here calls into the program under test, so a change
//! to the program never changes what the benchmark asks of it; the same
//! seed always yields the same keys, values and ops.

use std::collections::BTreeMap;

/// Fixed key width in bytes.
pub const KEY_LEN: usize = 16;
/// Fixed value width in bytes.
pub const VALUE_LEN: usize = 100;
/// Closed-loop client threads, one per core of the 2-core reference host.
pub const CLIENTS: usize = 2;
/// Writer id of the load phase; clients are `1..=CLIENTS`.
pub const LOADER: u8 = 0;

/// Client-private insert keys live at `PRIVATE_BASE + (client << 40) + j`,
/// an index range no loaded key and no other client uses.
const PRIVATE_BASE: u64 = 1 << 48;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// YCSB-A: 50 % reads, 50 % updates, Zipfian over 10 k keys.
    WriteHot,
    /// YCSB-C: 100 % reads, uniform over 100 k keys.
    ReadUncached,
    /// YCSB-E: 95 % scans of 1–100 entries, 5 % client-private inserts,
    /// scan starts Zipfian over 10 k keys.
    ScanShort,
}

/// The three request types the serving API offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `ShardedDb::get`.
    Read = 0,
    /// `ShardedDb::put`.
    Write = 1,
    /// `ShardedDb::scan`.
    Scan = 2,
}

impl OpKind {
    /// Every kind, indexed by its discriminant.
    pub const ALL: [OpKind; 3] = [OpKind::Read, OpKind::Write, OpKind::Scan];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Scan => "scan",
        }
    }
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::WriteHot,
        Workload::ReadUncached,
        Workload::ScanShort,
    ];

    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WriteHot => "write_hot",
            Workload::ReadUncached => "read_uncached",
            Workload::ScanShort => "scan_short",
        }
    }

    /// Keys loaded before the timed run.
    pub fn loaded_keys(self) -> u64 {
        match self {
            Workload::WriteHot | Workload::ScanShort => 10_000,
            Workload::ReadUncached => 100_000,
        }
    }

    /// The request type whose latency the end-to-end `main_*` metrics
    /// report: the one the workload exists to stress.
    pub fn main_op(self) -> OpKind {
        match self {
            Workload::WriteHot => OpKind::Write,
            Workload::ReadUncached => OpKind::Read,
            Workload::ScanShort => OpKind::Scan,
        }
    }

    /// Whether clients overwrite loaded keys (otherwise a loaded key
    /// always holds its load-phase value).
    fn updates_loaded(self) -> bool {
        self == Workload::WriteHot
    }
}

/// One client request, by key index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point read of key `idx`.
    Get { idx: u64 },
    /// Write of `value(idx, client, ver)`: an update of a loaded key or an
    /// insert of a client-private one.
    Put { idx: u64, ver: u64 },
    /// Up to `limit` entries from key `idx` upward, unbounded above.
    Scan { idx: u64, limit: usize },
}

impl Op {
    /// The request type.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Get { .. } => OpKind::Read,
            Op::Put { .. } => OpKind::Write,
            Op::Scan { .. } => OpKind::Scan,
        }
    }
}

/// SplitMix64 step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Murmur3's 64-bit finalizer: a bijection, so distinct inputs stay
/// distinct.
fn mix(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

fn hex_into(out: &mut [u8], mut v: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for b in out.iter_mut().rev() {
        *b = DIGITS[(v & 15) as usize];
        v >>= 4;
    }
}

fn parse_hex(s: &[u8]) -> Option<u64> {
    std::str::from_utf8(s)
        .ok()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
}

/// Key `idx`: 16 hex digits of a bijective mix of `idx`. Distinct indexes
/// give distinct keys, and key order scrambles index (load) order.
pub fn key(idx: u64) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    hex_into(&mut k, mix(idx));
    k
}

/// Index of client `client`'s `j`-th private insert.
pub fn private_idx(client: usize, j: u64) -> u64 {
    PRIVATE_BASE + ((client as u64) << 40) + j
}

fn private_owner(idx: u64) -> Option<usize> {
    idx.checked_sub(PRIVATE_BASE)
        .map(|off| (off >> 40) as usize)
}

const HEADER_LEN: usize = 33;

/// The value `writer` stores under key `idx` in its `ver`-th write:
/// `"<idx:16x>.<writer:2x>.<ver:12x>."` followed by filler derived from
/// all three, so every byte of an answer is checkable.
pub fn value(idx: u64, writer: u8, ver: u64) -> Vec<u8> {
    let mut v = vec![b'.'; VALUE_LEN];
    hex_into(&mut v[..16], idx);
    hex_into(&mut v[17..19], u64::from(writer));
    hex_into(&mut v[20..32], ver);
    let mut state = idx ^ (u64::from(writer) << 56) ^ ver.rotate_left(20);
    for chunk in v[HEADER_LEN..].chunks_mut(16) {
        let mut digits = [0u8; 16];
        hex_into(&mut digits, splitmix64(&mut state));
        chunk.copy_from_slice(&digits[..chunk.len()]);
    }
    v
}

/// What a well-formed value says about its write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// Key index the value was written under.
    pub idx: u64,
    /// [`LOADER`] or a client id.
    pub writer: u8,
    /// The writer's version counter.
    pub ver: u64,
}

/// Checks that `v` is byte-for-byte a value some writer could have
/// stored under `key`, and returns who wrote it.
pub fn decode_value(key: &[u8], v: &[u8]) -> Result<Decoded, String> {
    let bad = |why: &str| {
        Err(format!(
            "bad value for key {}: {why}",
            String::from_utf8_lossy(key)
        ))
    };
    if v.len() != VALUE_LEN {
        return bad(&format!("length {}", v.len()));
    }
    let (Some(idx), Some(writer), Some(ver)) = (
        parse_hex(&v[..16]),
        parse_hex(&v[17..19]),
        parse_hex(&v[20..32]),
    ) else {
        return bad("unparsable header");
    };
    let writer = writer as u8;
    if self::key(idx) != key {
        return bad(&format!("encodes key index {idx}, a different key"));
    }
    if v != value(idx, writer, ver).as_slice() {
        return bad("body does not match its header");
    }
    Ok(Decoded { idx, writer, ver })
}

/// Checks that `v`, read under key `idx`, is a value this workload can
/// have stored there. Keys `0..loaded` were loaded; higher indexes are
/// client-private inserts.
pub fn check_get(
    workload: Workload,
    loaded: u64,
    idx: u64,
    v: Option<&[u8]>,
) -> Result<(), String> {
    let k = key(idx);
    let Some(v) = v else {
        return Err(format!(
            "get {} (index {idx}) found nothing",
            String::from_utf8_lossy(&k)
        ));
    };
    let d = decode_value(&k, v)?;
    check_writer(workload, loaded, d)
}

fn check_writer(workload: Workload, loaded: u64, d: Decoded) -> Result<(), String> {
    let ok = if d.idx < loaded {
        d.writer == LOADER && d.ver == 0
            || workload.updates_loaded() && (1..=CLIENTS as u8).contains(&d.writer)
    } else {
        private_owner(d.idx) == Some(d.writer as usize) && d.writer >= 1
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "index {} holds a value from writer {} ver {} that never wrote it",
            d.idx, d.writer, d.ver
        ))
    }
}

/// Checks a `scan(key(start), None, limit)` answer: within `limit`,
/// strictly ascending from the start key, every value well-formed for its
/// key, and no loaded key in the covered range missing (loaded keys are
/// never deleted). `loaded_sorted` is every loaded key, sorted.
pub fn check_scan(
    workload: Workload,
    loaded: u64,
    start: u64,
    limit: usize,
    got: &[(Vec<u8>, Vec<u8>)],
    loaded_sorted: &[[u8; KEY_LEN]],
) -> Result<(), String> {
    let lk = key(start);
    let fail = |why: String| {
        Err(format!(
            "scan from {} limit {limit}: {why}",
            String::from_utf8_lossy(&lk)
        ))
    };
    if got.len() > limit {
        return fail(format!("{} entries", got.len()));
    }
    if got
        .first()
        .is_some_and(|(k, _)| k.as_slice() < lk.as_slice())
    {
        return fail("first key below the start".into());
    }
    if got.windows(2).any(|w| w[0].0 >= w[1].0) {
        return fail("keys not strictly ascending".into());
    }
    for (k, v) in got {
        let d = decode_value(k, v)?;
        check_writer(workload, loaded, d)?;
    }
    // Loaded keys are never deleted: every one from the start key on must
    // be present, up to the last key returned when the answer is full.
    let from = loaded_sorted.partition_point(|k| k < &lk);
    let mut at = 0usize;
    for lkey in &loaded_sorted[from..] {
        if got.len() == limit
            && got
                .last()
                .is_some_and(|(last, _)| lkey.as_slice() > last.as_slice())
        {
            break;
        }
        while at < got.len() && got[at].0.as_slice() < lkey.as_slice() {
            at += 1;
        }
        if got
            .get(at)
            .is_none_or(|(k, _)| k.as_slice() != lkey.as_slice())
        {
            return fail(format!(
                "loaded key {} missing",
                String::from_utf8_lossy(lkey)
            ));
        }
    }
    Ok(())
}

/// Every loaded key, sorted.
pub fn loaded_sorted(loaded: u64) -> Vec<[u8; KEY_LEN]> {
    let mut keys: Vec<_> = (0..loaded).map(key).collect();
    keys.sort_unstable();
    keys
}

/// YCSB's Zipfian generator (Gray et al.) with the default constant 0.99,
/// over items `0..n`, item 0 hottest. `key()` already scatters indexes
/// over the key space, so hot items are spread as in YCSB's scrambled
/// variant.
#[derive(Debug, Clone)]
struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// A generator over `n` items.
    fn new(n: u64) -> Self {
        let theta = 0.99;
        let zeta = |n: u64| (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Self {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    /// Next item for the uniform draw `u` in `[0, 1)`.
    fn sample(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let idx = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        idx.min(self.n - 1)
    }
}

/// One client's endless, seeded request stream.
#[derive(Debug, Clone)]
pub struct OpStream {
    workload: Workload,
    loaded: u64,
    client: usize,
    rng: u64,
    zipf: Zipf,
    ver: u64,
    inserts: u64,
}

impl OpStream {
    /// Client `client`'s (1-based) stream for `seed` over `loaded` keys.
    pub fn new(workload: Workload, loaded: u64, seed: u64, client: usize) -> Self {
        Self {
            workload,
            loaded,
            client,
            rng: mix(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ client as u64),
            zipf: Zipf::new(loaded),
            ver: 0,
            inserts: 0,
        }
    }

    /// The client id this stream writes as.
    pub fn client(&self) -> usize {
        self.client
    }

    fn unit(&mut self) -> f64 {
        (splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        let coin = splitmix64(&mut self.rng) % 100;
        match self.workload {
            Workload::WriteHot => {
                let u = self.unit();
                let idx = self.zipf.sample(u);
                if coin < 50 {
                    Op::Get { idx }
                } else {
                    self.ver += 1;
                    Op::Put { idx, ver: self.ver }
                }
            }
            Workload::ReadUncached => Op::Get {
                idx: splitmix64(&mut self.rng) % self.loaded,
            },
            Workload::ScanShort => {
                if coin < 95 {
                    let u = self.unit();
                    let idx = self.zipf.sample(u);
                    let limit = 1 + (splitmix64(&mut self.rng) % 100) as usize;
                    Op::Scan { idx, limit }
                } else {
                    self.ver += 1;
                    let idx = private_idx(self.client, self.inserts);
                    self.inserts += 1;
                    Op::Put { idx, ver: self.ver }
                }
            }
        }
    }
}

/// What a client's acknowledged writes allow a key to hold after the run.
#[derive(Debug, Default)]
pub struct AckLog {
    /// Per key index, the version of this client's last acknowledged write.
    pub last: BTreeMap<u64, u64>,
    /// Versions whose write returned an error (they may or may not have
    /// been applied).
    pub failed: BTreeMap<u64, Vec<u64>>,
}

/// After a read-visibility barrier, checks that key `idx` holds a value
/// one of the clients' last writes to it allows: the loader's value when
/// no client wrote it, else some client's last acknowledged (or failed
/// later) write.
pub fn check_final(idx: u64, got: Option<&[u8]>, logs: &[(usize, &AckLog)]) -> Result<(), String> {
    let k = key(idx);
    let Some(v) = got else {
        return Err(format!(
            "acknowledged key index {idx} unreadable after the barrier"
        ));
    };
    let d = decode_value(&k, v)?;
    for &(client, log) in logs {
        if d.writer as usize == client
            && (log.last.get(&idx) == Some(&d.ver)
                || log.failed.get(&idx).is_some_and(|f| f.contains(&d.ver)))
        {
            return Ok(());
        }
    }
    if d.writer == LOADER && !logs.iter().any(|(_, log)| log.last.contains_key(&idx)) {
        return Ok(());
    }
    Err(format!(
        "index {idx} holds writer {} ver {}, not a last acknowledged write",
        d.writer, d.ver
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_reject_tampering() {
        let v = value(42, 1, 7);
        assert_eq!(v.len(), VALUE_LEN);
        assert_eq!(
            decode_value(&key(42), &v),
            Ok(Decoded {
                idx: 42,
                writer: 1,
                ver: 7
            })
        );
        assert!(decode_value(&key(43), &v).is_err());
        let mut bad = v.clone();
        bad[VALUE_LEN - 1] ^= 1;
        assert!(decode_value(&key(42), &bad).is_err());
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let loaded = 1000;
        let take = |seed| {
            let mut s = OpStream::new(Workload::ScanShort, loaded, seed, 1);
            (0..200).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(take(3), take(3));
        assert_ne!(take(3), take(4));
    }

    #[test]
    fn scan_check_catches_a_gap() {
        let loaded = 50;
        let sorted = loaded_sorted(loaded);
        let idx_of = |k: &[u8; KEY_LEN]| (0..50).find(|&i| &key(i) == k).unwrap();
        let start = idx_of(&sorted[10]);
        let full: Vec<_> = sorted[10..15]
            .iter()
            .map(|k| (k.to_vec(), value(idx_of(k), LOADER, 0)))
            .collect();
        assert!(check_scan(Workload::ScanShort, loaded, start, 5, &full, &sorted).is_ok());
        let mut gap = full.clone();
        gap.remove(2);
        assert!(check_scan(Workload::ScanShort, loaded, start, 5, &gap, &sorted).is_err());
        assert!(check_scan(Workload::ScanShort, loaded, start, 4, &full, &sorted).is_err());
    }
}
