//! Visibility measured from outside: joining the generator's tick probes
//! with the subscriber's push log.
//!
//! A probe is the last update of a tick, identified by its shard and its
//! per-shard sequence number (a shard's sequence number is simply how many
//! updates it has applied). The subscriber logs `(time, shard, to_seq)` for
//! every entry of every push right after `Mirror::apply`. A probe is visible
//! at the first log entry on its shard whose `to_seq` has reached its
//! sequence number — a delta suffix and a resync snapshot both advance the
//! mirror's cursor, so both count.

/// The last update of one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// The shard that owns the update.
    pub shard: u32,
    /// The shard's sequence number once the update is applied.
    pub seq: u64,
    /// When the tick was due (ns since the run's epoch): the latency clock
    /// starts here, not at the send.
    pub due_ns: u64,
}

/// One entry of one push, as the subscriber saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// When `Mirror::apply` returned (ns since the run's epoch).
    pub at_ns: u64,
    /// The shard the entry advanced.
    pub shard: u32,
    /// The sequence number the entry caught the mirror up to.
    pub to_seq: u64,
}

/// For each probe, `visible time − due time` in ns, or `None` if the mirror
/// never reached it. Per shard, both the probes' and the log's sequence
/// numbers are non-decreasing in time, so each probe is a binary search.
pub fn join(probes: &[Probe], log: &[LogEntry]) -> Vec<Option<u64>> {
    let n_shards = log
        .iter()
        .map(|e| e.shard)
        .chain(probes.iter().map(|p| p.shard))
        .max()
        .map_or(0, |s| s as usize + 1);
    let mut per_shard: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_shards];
    for e in log {
        per_shard[e.shard as usize].push((e.to_seq, e.at_ns));
    }
    probes
        .iter()
        .map(|p| {
            let entries = &per_shard[p.shard as usize];
            let first = entries.partition_point(|&(to_seq, _)| to_seq < p.seq);
            entries
                .get(first)
                .map(|&(_, at_ns)| at_ns.saturating_sub(p.due_ns))
        })
        .collect()
}

/// When the mirror's cursor, summed over shards, first reached `target`
/// (ns since the run's epoch), or `None` if it never did.
pub fn reached_at(log: &[LogEntry], target: u64) -> Option<u64> {
    let mut cursor: Vec<u64> = Vec::new();
    let mut sum = 0u64;
    for e in log {
        let shard = e.shard as usize;
        if cursor.len() <= shard {
            cursor.resize(shard + 1, 0);
        }
        sum += e.to_seq.saturating_sub(cursor[shard]);
        cursor[shard] = cursor[shard].max(e.to_seq);
        if sum >= target {
            return Some(e.at_ns);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at_ns: u64, shard: u32, to_seq: u64) -> LogEntry {
        LogEntry {
            at_ns,
            shard,
            to_seq,
        }
    }

    fn probe(shard: u32, seq: u64, due_ns: u64) -> Probe {
        Probe { shard, seq, due_ns }
    }

    #[test]
    fn a_probe_is_visible_at_the_first_entry_that_reaches_it() {
        let log = [
            entry(1_000, 0, 64),
            entry(1_500, 1, 64),
            entry(2_000, 0, 128),
            entry(3_000, 0, 192),
        ];
        let probes = [
            probe(0, 64, 400),   // exactly the first watermark
            probe(0, 65, 900),   // needs the second push of shard 0
            probe(1, 10, 1_200), // the other shard's log is independent
            probe(0, 192, 2_500),
        ];
        assert_eq!(
            join(&probes, &log),
            vec![Some(600), Some(1_100), Some(300), Some(500)]
        );
    }

    #[test]
    fn a_probe_never_seen_stays_unseen() {
        let log = [entry(1_000, 0, 64)];
        let probes = [probe(0, 65, 0), probe(1, 1, 0), probe(0, 1, 10)];
        assert_eq!(join(&probes, &log), vec![None, None, Some(990)]);
        assert_eq!(join(&probes, &[]), vec![None, None, None]);
    }

    #[test]
    fn reached_at_follows_the_cursor_sum_over_shards() {
        let log = [
            entry(1_000, 0, 64),
            entry(1_500, 1, 30),
            entry(2_000, 0, 128),
            entry(2_000, 1, 70),
        ];
        assert_eq!(reached_at(&log, 0), Some(1_000));
        assert_eq!(reached_at(&log, 64), Some(1_000));
        assert_eq!(reached_at(&log, 94), Some(1_500));
        assert_eq!(reached_at(&log, 95), Some(2_000));
        assert_eq!(reached_at(&log, 198), Some(2_000));
        assert_eq!(reached_at(&log, 199), None);
    }

    #[test]
    fn a_mid_run_resync_entry_makes_skipped_updates_visible() {
        // The mirror followed deltas to 64, fell behind retention, and was
        // rebased by a resync snapshot at 5 000: everything up to 5 000 is
        // visible from that entry on, although no delta ever covered it.
        let log = [
            entry(1_000, 0, 64),
            entry(9_000, 0, 5_000), // the resync
            entry(9_500, 0, 5_064),
        ];
        let probes = [
            probe(0, 1_000, 2_000),
            probe(0, 5_000, 2_500),
            probe(0, 5_001, 9_100),
        ];
        assert_eq!(
            join(&probes, &log),
            vec![Some(7_000), Some(6_500), Some(400)]
        );
    }
}
