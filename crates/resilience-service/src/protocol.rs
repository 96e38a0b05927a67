//! The service wire protocol: line-delimited JSON requests and responses.
//!
//! Every message is one JSON document on one line. A client sends
//! [`Request`] lines and receives exactly one [`Response`] line per request,
//! in the order the requests were written on that connection (the daemon
//! may *process* them out of order across a batch, but replies are
//! sequenced per connection).
//!
//! Queries are `kind`-tagged objects:
//!
//! ```json
//! {"id":1,"query":{"kind":"optimum","platform":{…},"costs":{…},"theorem":"theorem4"}}
//! {"id":2,"query":{"kind":"overhead","pattern":{…},"platform":{…},"costs":{…}}}
//! {"id":3,"query":{"kind":"sweep_cell","grid_size":10,"index":42}}
//! {"id":4,"query":{"kind":"stats"}}
//! {"id":5,"query":{"kind":"shutdown"}}
//! ```
//!
//! Responses carry the request's `id` and either an `ok` payload (a
//! `kind`-tagged [`Reply`]) or an `error` string naming the offending
//! field, in the same diagnostic style as the CLI:
//!
//! ```json
//! {"id":1,"ok":{"kind":"optimum","optimum":{"pattern":{…},"overhead":0.1}}}
//! {"id":3,"error":"index: 9999 out of range for the 1000-cell grid"}
//! ```
//!
//! All numeric payloads ride the vendored JSON layer's lossless encoding,
//! so a reply rendered by the daemon is byte-identical to the same value
//! rendered by a direct library call — the service smoke tests diff the
//! two byte streams.

use resilience::{CostModel, Pattern, PatternOptimum, Platform, Theorem};
use serde::{Deserialize, JsonError, Serialize, Value};

/// One query with a client-chosen correlation id.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed verbatim in the matching [`Response`].
    pub id: u64,
    /// What to compute.
    pub query: Query,
}

/// The queries the daemon answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Optimal pattern and overhead for a theorem at one platform point.
    Optimum {
        /// Error rates.
        platform: Platform,
        /// Resilience costs.
        costs: CostModel,
        /// Which closed form to optimize.
        theorem: Theorem,
    },
    /// First-order expected overhead of an explicit pattern.
    Overhead {
        /// The pattern to evaluate.
        pattern: Pattern,
        /// Error rates.
        platform: Platform,
        /// Resilience costs.
        costs: CostModel,
    },
    /// One cell of the canonical procedural grid
    /// ([`resilience::grid_spec`]): `grid_size` is the per-axis length,
    /// `index` the cell's position in expansion order.
    SweepCell {
        /// Cells per grid axis (1..=[`resilience::GRID_AXIS_LEN`]).
        grid_size: u64,
        /// Cell index in `0..grid_size³`.
        index: u64,
    },
    /// Service counters: batching behaviour and cache effectiveness.
    Stats,
    /// Acknowledge, then stop accepting connections and exit cleanly.
    Shutdown,
}

/// A successful answer, tagged like [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Query::Optimum`].
    Optimum(PatternOptimum),
    /// Answer to [`Query::Overhead`].
    Overhead(f64),
    /// Answer to [`Query::SweepCell`].
    SweepCell {
        /// Echo of the queried index.
        index: u64,
        /// The cell's grid-point name, e.g. `"1000n-25y-r0.05"`.
        name: String,
        /// The theorem the grid optimizes (Theorem 4 on the canonical grid).
        theorem: Theorem,
        /// The cell's optimum.
        optimum: PatternOptimum,
    },
    /// Answer to [`Query::Stats`].
    Stats(ServiceStats),
    /// Answer to [`Query::Shutdown`]: the daemon acknowledges before
    /// closing the connection.
    ShuttingDown,
}

/// One response line: the request's id plus its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The [`Request::id`] this answers.
    pub id: u64,
    /// The reply, or an error string naming the offending field.
    pub outcome: Result<Reply, String>,
}

/// Batching and cache counters, as returned by [`Query::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Queries the batch worker has processed.
    pub requests: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Batches that coalesced more than one query.
    pub coalesced_batches: u64,
    /// Largest batch dispatched.
    pub max_batch: u64,
    /// Current adaptive coalescing window, in microseconds.
    pub window_us: u64,
    /// Optimum-cache hits (shared cache, cumulative).
    pub cache_hits: u64,
    /// Optimum-cache misses (shared cache, cumulative).
    pub cache_misses: u64,
}

/// A sweep worker's per-shard checksum/count trailer: what the worker
/// *intended* to write on stdout. The coordinator recomputes the same
/// digest over the bytes it actually received; any mismatch means the
/// shard was silently corrupted in flight and must be re-executed, not
/// merged. Also printed by `--trailer` for humans concatenating shards by
/// hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTrailer {
    /// The worker's `I/N` slice label.
    pub shard: String,
    /// Result cells rendered (excludes the header lines shard 0 prints).
    pub cells: u64,
    /// Total stdout lines, header included.
    pub lines: u64,
    /// Total stdout bytes.
    pub bytes: u64,
    /// FNV-1a 64 digest of the stdout bytes ([`stats::Fnv64`]).
    pub fnv64: u64,
}

/// One line of a sweep worker's stderr event stream: line-delimited JSON in
/// the same `event`-tagged style as the service's `kind`-tagged queries.
/// `progress` lines are the coordinator's heartbeat (a worker that stops
/// emitting them past its deadline is a straggler); the final `trailer`
/// line carries the [`ShardTrailer`] the coordinator verifies against.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerEvent {
    /// Heartbeat: the worker has written `lines` stdout lines so far.
    Progress {
        /// Stdout lines written when the heartbeat fired.
        lines: u64,
    },
    /// Final per-shard verification trailer.
    Trailer(ShardTrailer),
}

impl Serialize for ShardTrailer {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("shard", self.shard.to_json()),
            ("cells", self.cells.to_json()),
            ("lines", self.lines.to_json()),
            ("bytes", self.bytes.to_json()),
            // Hex, for eyeballing; the paired digest in a diff lines up
            // column-for-column.
            ("fnv64", format!("{:#018x}", self.fnv64).to_json()),
        ])
    }
}

impl Deserialize for ShardTrailer {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let hex: String = v.read("fnv64")?;
        let digits = hex.strip_prefix("0x").unwrap_or(&hex);
        let fnv64 = u64::from_str_radix(digits, 16)
            .map_err(|_| JsonError::new(format!("fnv64: expected a hex digest, got \"{hex}\"")))?;
        Ok(Self {
            shard: v.read("shard")?,
            cells: v.read("cells")?,
            lines: v.read("lines")?,
            bytes: v.read("bytes")?,
            fnv64,
        })
    }
}

impl Serialize for WorkerEvent {
    fn to_json(&self) -> Value {
        match self {
            WorkerEvent::Progress { lines } => Value::obj(vec![
                ("event", "progress".to_json()),
                ("lines", lines.to_json()),
            ]),
            WorkerEvent::Trailer(t) => {
                let Value::Obj(mut fields) = t.to_json() else {
                    unreachable!("ShardTrailer serializes to an object");
                };
                fields.insert(0, ("event".to_owned(), "trailer".to_json()));
                Value::Obj(fields)
            }
        }
    }
}

impl Deserialize for WorkerEvent {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let event: String = v.read("event")?;
        match event.as_str() {
            "progress" => Ok(WorkerEvent::Progress {
                lines: v.read("lines")?,
            }),
            "trailer" => Ok(WorkerEvent::Trailer(ShardTrailer::from_json(v)?)),
            other => Err(JsonError::new(format!(
                "unknown worker event \"{other}\" (expected progress or trailer)"
            ))),
        }
    }
}

impl Serialize for Request {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("id", self.id.to_json()),
            ("query", self.query.to_json()),
        ])
    }
}

impl Deserialize for Request {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            id: v.read("id")?,
            query: v.read("query")?,
        })
    }
}

impl Serialize for Query {
    fn to_json(&self) -> Value {
        match self {
            Query::Optimum {
                platform,
                costs,
                theorem,
            } => Value::obj(vec![
                ("kind", "optimum".to_json()),
                ("platform", platform.to_json()),
                ("costs", costs.to_json()),
                ("theorem", theorem.to_json()),
            ]),
            Query::Overhead {
                pattern,
                platform,
                costs,
            } => Value::obj(vec![
                ("kind", "overhead".to_json()),
                ("pattern", pattern.to_json()),
                ("platform", platform.to_json()),
                ("costs", costs.to_json()),
            ]),
            Query::SweepCell { grid_size, index } => Value::obj(vec![
                ("kind", "sweep_cell".to_json()),
                ("grid_size", grid_size.to_json()),
                ("index", index.to_json()),
            ]),
            Query::Stats => Value::obj(vec![("kind", "stats".to_json())]),
            Query::Shutdown => Value::obj(vec![("kind", "shutdown".to_json())]),
        }
    }
}

impl Deserialize for Query {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let kind: String = v.read("kind")?;
        match kind.as_str() {
            "optimum" => Ok(Query::Optimum {
                platform: v.read("platform")?,
                costs: v.read("costs")?,
                theorem: v.read("theorem")?,
            }),
            "overhead" => Ok(Query::Overhead {
                pattern: v.read("pattern")?,
                platform: v.read("platform")?,
                costs: v.read("costs")?,
            }),
            "sweep_cell" => Ok(Query::SweepCell {
                grid_size: v.read("grid_size")?,
                index: v.read("index")?,
            }),
            "stats" => Ok(Query::Stats),
            "shutdown" => Ok(Query::Shutdown),
            other => Err(JsonError::new(format!(
                "unknown query kind \"{other}\" (expected optimum, overhead, \
                 sweep_cell, stats or shutdown)"
            ))),
        }
    }
}

impl Serialize for Reply {
    fn to_json(&self) -> Value {
        match self {
            Reply::Optimum(opt) => Value::obj(vec![
                ("kind", "optimum".to_json()),
                ("optimum", opt.to_json()),
            ]),
            Reply::Overhead(h) => Value::obj(vec![
                ("kind", "overhead".to_json()),
                ("overhead", h.to_json()),
            ]),
            Reply::SweepCell {
                index,
                name,
                theorem,
                optimum,
            } => Value::obj(vec![
                ("kind", "sweep_cell".to_json()),
                ("index", index.to_json()),
                ("name", name.to_json()),
                ("theorem", theorem.to_json()),
                ("optimum", optimum.to_json()),
            ]),
            Reply::Stats(s) => {
                Value::obj(vec![("kind", "stats".to_json()), ("stats", s.to_json())])
            }
            Reply::ShuttingDown => Value::obj(vec![("kind", "shutting_down".to_json())]),
        }
    }
}

impl Deserialize for Reply {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let kind: String = v.read("kind")?;
        match kind.as_str() {
            "optimum" => Ok(Reply::Optimum(v.read("optimum")?)),
            "overhead" => Ok(Reply::Overhead(v.read("overhead")?)),
            "sweep_cell" => Ok(Reply::SweepCell {
                index: v.read("index")?,
                name: v.read("name")?,
                theorem: v.read("theorem")?,
                optimum: v.read("optimum")?,
            }),
            "stats" => Ok(Reply::Stats(v.read("stats")?)),
            "shutting_down" => Ok(Reply::ShuttingDown),
            other => Err(JsonError::new(format!("unknown reply kind \"{other}\""))),
        }
    }
}

impl Serialize for Response {
    fn to_json(&self) -> Value {
        let mut fields = vec![("id", self.id.to_json())];
        match &self.outcome {
            Ok(reply) => fields.push(("ok", reply.to_json())),
            Err(msg) => fields.push(("error", msg.to_json())),
        }
        Value::obj(fields)
    }
}

impl Deserialize for Response {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let id: u64 = v.read("id")?;
        let ok: Option<Reply> = v.read_opt("ok")?;
        let outcome = match ok {
            Some(reply) => Ok(reply),
            None => Err(v
                .read::<String>("error")
                .map_err(|_| JsonError::new("response carries neither \"ok\" nor \"error\""))?),
        };
        Ok(Self { id, outcome })
    }
}

impl Serialize for ServiceStats {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("requests", self.requests.to_json()),
            ("batches", self.batches.to_json()),
            ("coalesced_batches", self.coalesced_batches.to_json()),
            ("max_batch", self.max_batch.to_json()),
            ("window_us", self.window_us.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
            ("cache_misses", self.cache_misses.to_json()),
        ])
    }
}

impl Deserialize for ServiceStats {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            requests: v.read("requests")?,
            batches: v.read("batches")?,
            coalesced_batches: v.read("coalesced_batches")?,
            max_batch: v.read("max_batch")?,
            window_us: v.read("window_us")?,
            cache_hits: v.read("cache_hits")?,
            cache_misses: v.read("cache_misses")?,
        })
    }
}
