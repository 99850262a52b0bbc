//! End-to-end story identification: posts in, ranked stories out.
//!
//! This is the layer a downstream application (such as an interactive story
//! exploration system) uses. The entity registry and the post →
//! edge-weight-update generator run on the ingest thread (they are cheap and
//! inherently sequential per post), while the dense-subgraph maintenance is
//! routed through a [`ShardedDynDens`] fleet — one shard
//! (`ShardConfig::new(1)`) is the plain single-engine pipeline. Story reads
//! come either from the authoritative flushing path
//! ([`ShardedStoryPipeline::top_stories`]) or from the non-blocking,
//! bounded-lag [`StoryView`] path
//! ([`ShardedStoryPipeline::top_stories_latest`]).

use std::io::{self, Write};
use std::path::Path;

use crate::entity::EntityRegistry;
use crate::measures::AssociationMeasure;
use crate::pipeline::EdgeUpdateGenerator;
use crate::post::Post;
use crate::ranking::{rank_with_diversity, Story};
use dyndens_core::DynDensConfig;
use dyndens_density::DensityMeasure;
use dyndens_graph::codec::{put_frame, scan_frames};
use dyndens_graph::EdgeUpdate;
use dyndens_shard::wal::truncate_torn_tail;
use dyndens_shard::{
    FsyncPolicy, MergedStories, PersistenceConfig, RecoveryError, ShardConfig, ShardedDynDens,
    StoryView,
};

/// An error recovering a persistent [`ShardedStoryPipeline`].
#[derive(Debug)]
pub enum PipelineRecoveryError {
    /// The shard fleet failed to recover (WAL/snapshot/manifest problems).
    Shard(RecoveryError),
    /// The entity-name journal holds fewer names than the recovered engines
    /// reference (e.g. mid-file corruption truncated it). Continuing would
    /// assign recovered vertices' ids to brand-new entities and silently
    /// merge them, so this is a hard error.
    RegistryBehindEngine {
        /// Names recovered from the journal.
        names: usize,
        /// Vertices the recovered engines reference.
        vertices: usize,
    },
}

impl From<RecoveryError> for PipelineRecoveryError {
    fn from(e: RecoveryError) -> Self {
        PipelineRecoveryError::Shard(e)
    }
}

impl From<io::Error> for PipelineRecoveryError {
    fn from(e: io::Error) -> Self {
        PipelineRecoveryError::Shard(e.into())
    }
}

impl std::fmt::Display for PipelineRecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineRecoveryError::Shard(e) => write!(f, "{e}"),
            PipelineRecoveryError::RegistryBehindEngine { names, vertices } => write!(
                f,
                "entity journal recovered only {names} names but the engines reference \
                 {vertices} vertices; the journal is damaged beyond its tail"
            ),
        }
    }
}

impl std::error::Error for PipelineRecoveryError {}

/// Append-only journal of interned entity names, in intern (= vertex id)
/// order, using the same `len | crc | payload` record framing as the shard
/// WAL ([`put_frame`]/[`scan_frames`]).
///
/// The engine slice of a persistent pipeline survives a crash via the
/// shards' WAL + snapshots, but the name ↔ [`dyndens_graph::VertexId`]
/// mapping lives on the ingest side: without it, a recovered pipeline would
/// re-intern fresh names starting at vertex 0 and silently merge new
/// entities into the recovered graph's old vertices. Journalling each name
/// *before* its first updates are routed (fsynced under
/// [`FsyncPolicy::Always`], mirroring the WAL) keeps the mapping durable;
/// replay is simply re-interning the journalled names in order. A torn tail
/// (crash mid-append) is truncated away — the affected name had no routed
/// updates yet. Truncation that *would* lose names the engines still
/// reference is caught by the [`RegistryBehindEngine`] cross-check after
/// recovery.
///
/// [`RegistryBehindEngine`]: PipelineRecoveryError::RegistryBehindEngine
#[derive(Debug)]
struct EntityJournal {
    file: std::fs::File,
    fsync: FsyncPolicy,
}

impl EntityJournal {
    const FILE_NAME: &'static str = "entities.log";

    /// Opens (or creates) the journal under `dir`, returning the journalled
    /// names in intern order and repairing a torn tail by truncation.
    fn open(dir: &Path, fsync: FsyncPolicy) -> io::Result<(Self, Vec<String>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(Self::FILE_NAME);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut names = Vec::new();
        let scan = scan_frames(&bytes, |payload| match std::str::from_utf8(payload) {
            Ok(name) => {
                names.push(name.to_string());
                true
            }
            Err(_) => false,
        });
        if !scan.clean {
            truncate_torn_tail(&path, scan.valid_len)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok((EntityJournal { file, fsync }, names))
    }

    /// Appends one newly interned name, honouring the fsync policy (under
    /// `Always`, the name is durable before any update using its vertex id
    /// is routed — the same write-ahead ordering the shard WAL gives
    /// updates).
    fn append(&mut self, name: &str) -> io::Result<()> {
        let mut frame = Vec::with_capacity(8 + name.len());
        put_frame(&mut frame, name.as_bytes());
        self.file.write_all(&frame)?;
        if self.fsync == FsyncPolicy::Always {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

/// The real-time story identification pipeline.
#[derive(Debug)]
pub struct ShardedStoryPipeline<M: AssociationMeasure, D: DensityMeasure> {
    registry: EntityRegistry,
    generator: EdgeUpdateGenerator<M>,
    engine: ShardedDynDens<D>,
    /// Scratch buffer reused across posts.
    updates: Vec<EdgeUpdate>,
    /// Durable name ↔ vertex mapping of a persistent pipeline.
    journal: Option<EntityJournal>,
}

impl<M: AssociationMeasure, D: DensityMeasure> ShardedStoryPipeline<M, D> {
    /// Creates a pipeline with the given association measure, exponential
    /// decay mean life (seconds), density measure, engine configuration and
    /// shard configuration.
    pub fn new(
        association: M,
        mean_life: f64,
        density: D,
        engine_config: DynDensConfig,
        shard_config: ShardConfig,
    ) -> Self {
        let engine = ShardedDynDens::new(density, engine_config, shard_config);
        Self::assemble(EntityRegistry::new(), association, mean_life, engine, None)
    }

    /// The crash-safe variant of [`new`](Self::new): the shard fleet is
    /// backed by per-shard write-ahead logs and periodic engine snapshots
    /// under `persistence.dir`, and the entity registry by an append-only
    /// name journal (`entities.log`) in the same directory. On construction
    /// both recover together (an empty directory starts fresh), so vertex
    /// ids keep meaning the same entities across restarts and recovered
    /// stories describe themselves with the right names.
    ///
    /// Remaining durability boundary: the association-measure decay state of
    /// the update generator is rebuilt fresh — post-recovery association
    /// deltas restart from the generator's initial statistics, mirroring
    /// where the paper's maintained state ends and stream preprocessing
    /// begins.
    pub fn with_persistence(
        association: M,
        mean_life: f64,
        density: D,
        engine_config: DynDensConfig,
        shard_config: ShardConfig,
        persistence: PersistenceConfig,
    ) -> Result<Self, PipelineRecoveryError> {
        let (journal, names) = EntityJournal::open(&persistence.dir, persistence.fsync)?;
        let mut registry = EntityRegistry::new();
        for name in &names {
            registry.intern(name);
        }
        let engine =
            ShardedDynDens::with_persistence(density, engine_config, shard_config, persistence)?;
        // Cross-check: every vertex the recovered engines reference must
        // have a recovered name, otherwise new entities would be interned
        // onto recovered vertices' ids and silently merged into their edge
        // history. (The registry being *ahead* is fine — a journalled name
        // whose first updates were lost with a WAL tear simply has no edges
        // yet.)
        let vertices = engine.vertex_universe();
        if registry.len() < vertices {
            return Err(PipelineRecoveryError::RegistryBehindEngine {
                names: registry.len(),
                vertices,
            });
        }
        Ok(Self::assemble(
            registry,
            association,
            mean_life,
            engine,
            Some(journal),
        ))
    }

    fn assemble(
        registry: EntityRegistry,
        association: M,
        mean_life: f64,
        engine: ShardedDynDens<D>,
        journal: Option<EntityJournal>,
    ) -> Self {
        ShardedStoryPipeline {
            registry,
            generator: EdgeUpdateGenerator::new(association, mean_life),
            engine,
            updates: Vec::new(),
            journal,
        }
    }

    /// The entity registry (name ↔ vertex mapping).
    pub fn registry(&self) -> &EntityRegistry {
        &self.registry
    }

    /// The sharded engine fleet.
    pub fn engine(&self) -> &ShardedDynDens<D> {
        &self.engine
    }

    /// Mutable access to the fleet, for operations that reshape it (driving
    /// a [`Rebalancer`](dyndens_shard::Rebalancer) loop, explicit splits and
    /// merges). A reshape needs no coordination with the pipeline: the
    /// entity registry lives on the ingest side and assigns **global**
    /// vertex ids, so the name ↔ vertex mapping — and the entity-name
    /// journal of a persistent pipeline — is untouched by any change of
    /// which worker owns which vertex.
    pub fn engine_mut(&mut self) -> &mut ShardedDynDens<D> {
        &mut self.engine
    }

    /// The update generator, exposing stream statistics.
    pub fn generator(&self) -> &EdgeUpdateGenerator<M> {
        &self.generator
    }

    /// Ingests a post given as `(timestamp, entity names)`. The resulting
    /// edge updates are routed to their owner shards asynchronously; the
    /// number of updates routed is returned.
    pub fn ingest(&mut self, timestamp: f64, entity_names: &[&str]) -> usize {
        let entities = entity_names
            .iter()
            .map(|n| {
                // Durability before visibility, like the shard WAL: a new
                // name reaches the journal before any update that uses its
                // vertex id is routed (routing waits for the whole post), so
                // recovery can never see edges whose entity name is unknown.
                let (id, new) = self.registry.intern_new(n);
                if let (Some(journal), true) = (self.journal.as_mut(), new) {
                    journal
                        .append(n)
                        .unwrap_or_else(|e| panic!("entity journal append failed: {e}"));
                }
                id
            })
            .collect();
        let post = Post::new(timestamp, entities);
        self.ingest_post(&post)
    }

    /// Ingests an already entity-resolved post, returning the number of edge
    /// updates routed to the shards.
    pub fn ingest_post(&mut self, post: &Post) -> usize {
        self.updates.clear();
        self.generator.process_post_into(post, &mut self.updates);
        let routed = self.updates.len();
        if routed > 0 {
            let updates = std::mem::take(&mut self.updates);
            self.engine.apply_batch(&updates);
            self.updates = updates;
        }
        routed
    }

    /// Blocks until every routed update has been applied by its shard.
    pub fn flush(&self) {
        self.engine.flush();
    }

    /// The current top stories, diversity-ranked. Authoritative: flushes the
    /// shard queues before reading.
    pub fn top_stories(&self, limit: usize) -> Vec<Story> {
        let candidates = self.engine.output_dense();
        self.rank(&candidates, limit)
    }

    /// The top stories as of the shards' latest published snapshots:
    /// non-blocking with respect to ingest, at most one micro-batch stale per
    /// shard. Candidates are limited to each shard's published top-k.
    pub fn top_stories_latest(&self, limit: usize) -> Vec<Story> {
        let MergedStories { stories, .. } = self.engine.view().snapshot();
        self.rank(&stories, limit)
    }

    /// A non-blocking read handle that can be handed to serving threads.
    pub fn view(&self) -> StoryView {
        self.engine.view()
    }

    /// A snapshot of the registry's names in intern (= vertex id) order, for
    /// a serving process's name table (`names[i]` names `VertexId(i)`).
    pub fn entity_names(&self) -> Vec<String> {
        self.registry.names().to_vec()
    }

    fn rank(&self, candidates: &[(dyndens_graph::VertexSet, f64)], limit: usize) -> Vec<Story> {
        rank_with_diversity(candidates, limit)
            .into_iter()
            .map(|(vertices, density, adjusted_density)| Story {
                entities: self.registry.describe(vertices.iter()),
                vertices,
                density,
                adjusted_density,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::ChiSquareCorrelation;
    use dyndens_core::DynDens;
    use dyndens_density::AvgWeight;
    use dyndens_graph::VertexSet;
    use dyndens_shard::ShardFn;

    fn sharded_pipeline(n_shards: usize) -> ShardedStoryPipeline<ChiSquareCorrelation, AvgWeight> {
        ShardedStoryPipeline::new(
            ChiSquareCorrelation::default(),
            7200.0,
            AvgWeight,
            DynDensConfig::new(0.45, 4).with_delta_it_fraction(0.3),
            ShardConfig::new(n_shards)
                .with_shard_fn(ShardFn::Hashed)
                .with_max_batch(8),
        )
    }

    fn feed_raid_story(p: &mut ShardedStoryPipeline<ChiSquareCorrelation, AvgWeight>) {
        for i in 0..40 {
            let t = i as f64 * 10.0;
            p.ingest(t, &["Abbottabad", "Osama bin Laden"]);
            p.ingest(t + 1.0, &["Barack Obama", "Osama bin Laden"]);
            p.ingest(
                t + 2.0,
                &[match i % 4 {
                    0 => "Justin Bieber",
                    1 => "Lady Gaga",
                    2 => "Royal Wedding",
                    _ => "PlayStation",
                }],
            );
        }
    }

    #[test]
    fn sharded_pipeline_surfaces_stories() {
        let mut p = sharded_pipeline(2);
        feed_raid_story(&mut p);
        assert!(
            p.engine().output_dense_count() > 0,
            "expected at least one story"
        );
        let stories = p.top_stories(3);
        assert!(!stories.is_empty());
        let all_entities: Vec<String> = stories.iter().flat_map(|s| s.entities.clone()).collect();
        assert!(all_entities.iter().any(|e| e == "Osama bin Laden"));
        for s in &stories {
            assert!(s.density > 0.0);
            assert!(s.adjusted_density <= s.density + 1e-12);
            assert_eq!(s.entities.len(), s.vertices.len());
        }
        // The non-blocking path converges to the same answer once flushed.
        p.flush();
        let latest = p.top_stories_latest(3);
        assert_eq!(
            latest.iter().map(|s| &s.vertices).collect::<Vec<_>>(),
            stories.iter().map(|s| &s.vertices).collect::<Vec<_>>(),
        );
        let view = p.view();
        assert!(view.snapshot().seq > 0);
    }

    #[test]
    fn persistent_pipeline_serves_recovered_stories() {
        use dyndens_shard::{FsyncPolicy, PersistenceConfig};

        let dir = std::env::temp_dir().join(format!("dyndens-pipe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let persistence = || {
            PersistenceConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every_updates(32)
        };
        let build = |p: PersistenceConfig| {
            ShardedStoryPipeline::with_persistence(
                ChiSquareCorrelation::default(),
                7200.0,
                AvgWeight,
                DynDensConfig::new(0.45, 4).with_delta_it_fraction(0.3),
                ShardConfig::new(2)
                    .with_shard_fn(ShardFn::Hashed)
                    .with_max_batch(8),
                p,
            )
            .expect("persistent pipeline construction")
        };

        let want = {
            let mut p = build(persistence());
            feed_raid_story(&mut p);
            p.flush();
            let stories: Vec<_> = p.top_stories(3).into_iter().map(|s| s.vertices).collect();
            assert!(!stories.is_empty());
            stories
            // dropped here: "crash" without a final snapshot
        };

        // A fresh process recovers the engine slice AND the entity registry
        // (from the name journal), serving the same stories with the right
        // names before any new post arrives.
        let mut p2 = build(persistence());
        assert!(p2
            .engine()
            .recovery_reports()
            .iter()
            .any(|r| r.recovered_seq > 0));
        assert!(!p2.registry().is_empty(), "registry must recover");
        let recovered_stories = p2.top_stories(3);
        let got: Vec<_> = recovered_stories.iter().map(|s| &s.vertices).collect();
        assert_eq!(
            got,
            want.iter().collect::<Vec<_>>(),
            "recovered pipeline serves the same stories"
        );
        for s in &recovered_stories {
            for e in &s.entities {
                assert!(
                    !e.starts_with("entity#"),
                    "recovered story lost its entity names: {e}"
                );
            }
        }
        // New entities after recovery get fresh vertex ids — they must not
        // be merged into recovered entities' vertices.
        let next_id = p2.registry().len() as u32;
        p2.ingest(99_999.0, &["Brand New Entity"]);
        assert_eq!(
            p2.registry().get("Brand New Entity"),
            Some(dyndens_graph::VertexId(next_id))
        );
        drop(p2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_entity_journal_is_rejected_not_merged() {
        use dyndens_shard::{FsyncPolicy, PersistenceConfig};

        let dir = std::env::temp_dir().join(format!("dyndens-entjournal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            ShardedStoryPipeline::with_persistence(
                ChiSquareCorrelation::default(),
                7200.0,
                AvgWeight,
                DynDensConfig::new(0.45, 4).with_delta_it_fraction(0.3),
                ShardConfig::new(2).with_max_batch(8),
                PersistenceConfig::new(&dir).with_fsync(FsyncPolicy::Never),
            )
        };
        {
            let mut p = build().unwrap();
            feed_raid_story(&mut p);
            p.flush();
        }
        // Corrupt the FIRST journal record: the scan stops at offset 0, so
        // the registry would recover no names while the engines reference
        // many vertices — a silent-merge hazard that must be a hard error.
        let journal = dir.join("entities.log");
        let mut bytes = std::fs::read(&journal).unwrap();
        bytes[10] ^= 0xFF;
        std::fs::write(&journal, &bytes).unwrap();
        match build() {
            Err(PipelineRecoveryError::RegistryBehindEngine { names, vertices }) => {
                assert!(names < vertices, "{names} vs {vertices}");
            }
            Err(other) => panic!("expected RegistryBehindEngine, got {other}"),
            Ok(_) => panic!("damaged entity journal was accepted"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn split_keeps_registry_and_stories_stable() {
        // A split moves engine slices between workers but never touches the
        // ingest-side entity registry: vertex ids are global, so the story
        // set (and its names) at the split point is identical before and
        // after, and post-split ingest keeps resolving the same entities.
        let mut p = sharded_pipeline(2);
        feed_raid_story(&mut p);
        p.flush();
        let registry_before: Vec<String> = p.entity_names();
        let before: Vec<_> = p.top_stories(5);
        assert!(!before.is_empty());

        let report = p.engine_mut().split_shard(0).expect("split");
        assert_eq!(p.engine().n_shards(), 3);
        assert_eq!(report.new_slot, 2);
        assert_eq!(p.entity_names(), registry_before, "registry untouched");
        let after = p.top_stories(5);
        assert_eq!(
            after.iter().map(|s| &s.vertices).collect::<Vec<_>>(),
            before.iter().map(|s| &s.vertices).collect::<Vec<_>>(),
        );
        assert_eq!(
            after.iter().map(|s| &s.entities).collect::<Vec<_>>(),
            before.iter().map(|s| &s.entities).collect::<Vec<_>>(),
            "stories describe the same entities with the same names"
        );

        // Post-split ingest still resolves existing names to their original
        // vertices and serves stories through the grown fleet.
        p.ingest(401.0, &["Abbottabad", "Osama bin Laden"]);
        p.flush();
        assert_eq!(p.entity_names().len(), registry_before.len());
        assert!(p.engine().output_dense_count() > 0);
        assert_eq!(p.view().n_shards(), 3);
    }

    #[test]
    fn unrelated_entities_do_not_form_stories() {
        let mut p = ShardedStoryPipeline::new(
            ChiSquareCorrelation::default(),
            7200.0,
            AvgWeight,
            DynDensConfig::new(0.7, 4).with_delta_it_fraction(0.3),
            ShardConfig::new(1),
        );
        // Every post mentions a different pair: no recurring association.
        let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
        for i in 0..30 {
            let x = names[i % names.len()];
            let y = names[(i * 3 + 1) % names.len()];
            if x != y {
                p.ingest(i as f64, &[x, y]);
            }
        }
        // With the chi-square significance filter nothing should be strongly
        // associated enough to clear a 0.7 average-weight threshold for long.
        assert!(
            p.engine().output_dense_count() <= 2,
            "unexpected stories: {:?}",
            p.top_stories(5)
        );
    }

    #[test]
    fn engine_state_matches_generator_weights() {
        // Under average-weight density a dense pair's density is its edge
        // weight, so the engine must report exactly what the generator holds.
        let mut p = sharded_pipeline(1);
        for i in 0..25 {
            p.ingest(i as f64, &["x", "y"]);
            p.ingest(i as f64 + 0.5, &["background"]);
        }
        p.engine().validate().unwrap();
        let x = p.registry().get("x").unwrap();
        let y = p.registry().get("y").unwrap();
        let pair = VertexSet::pair(x, y);
        let (_, engine_weight) = p
            .engine()
            .dense_subgraphs()
            .into_iter()
            .find(|(s, _)| *s == pair)
            .expect("the x-y pair is dense");
        let generator_weight = p.generator().current_weight(x, y);
        assert!((engine_weight - generator_weight).abs() < 1e-9);
    }

    #[test]
    fn single_shard_pipeline_matches_story_pipeline() {
        // One shard, entity interning in the same order: the pipeline must
        // hold exactly the state of one engine fed by the same generator, and
        // rank exactly its stories.
        let mut sharded = sharded_pipeline(1);
        let mut registry = EntityRegistry::new();
        let mut generator = EdgeUpdateGenerator::new(ChiSquareCorrelation::default(), 7200.0);
        let mut engine = DynDens::new(
            AvgWeight,
            DynDensConfig::new(0.45, 4).with_delta_it_fraction(0.3),
        );
        for i in 0..40 {
            let t = i as f64 * 10.0;
            for (dt, names) in [
                (0.0, vec!["NATO", "Libya"]),
                (0.3, vec!["Sony", "PlayStation"]),
                (0.6, vec!["noise"]),
            ] {
                sharded.ingest(t + dt, &names);
                let entities = names.iter().map(|n| registry.intern(n)).collect();
                for u in generator.process_post(&Post::new(t + dt, entities)) {
                    engine.apply_update(u);
                }
            }
        }
        let bits = |(vertices, density, adjusted): (VertexSet, f64, f64)| {
            (vertices, density.to_bits(), adjusted.to_bits())
        };
        let got: Vec<_> = sharded
            .top_stories(5)
            .into_iter()
            .map(|s| bits((s.vertices, s.density, s.adjusted_density)))
            .collect();
        let want: Vec<_> = rank_with_diversity(&engine.output_dense_subgraphs(), 5)
            .into_iter()
            .map(bits)
            .collect();
        assert!(!want.is_empty());
        assert_eq!(got, want);

        let sorted_bits = |mut sets: Vec<(VertexSet, f64)>| {
            sets.sort_by(|a, b| a.0.cmp(&b.0));
            sets.into_iter()
                .map(|(s, d)| (s, d.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            sorted_bits(sharded.engine().dense_subgraphs()),
            sorted_bits(engine.dense_subgraphs())
        );
        assert_eq!(sharded.engine().edge_count(), engine.graph().edge_count());
        sharded.engine().validate().unwrap();
    }
}
