//! `serve_warm`: one op is one `compile` request for fft at full
//! optimization (the kernel with the largest C output), sent over
//! loopback to an in-process server with two workers, from two
//! closed-loop client connections. Set-up primes the stage cache, so
//! every stage hits: framing, JSON and the cache lookup do all the work,
//! compilation and simulation none.

use super::{check_output, simulate, Workload};
use crate::trace::Ctx;
use matic::{Compiler, Ty};
use matic_benchkit::{benchmark, reference, Benchmark};
use matic_isa::json::Json;
use matic_serve::protocol::{obj, read_frame, write_frame, MAX_FRAME_BYTES};
use matic_serve::{Budgets, Client, Server, ServerConfig};

/// Server workers, equal to the client connections.
const WORKERS: usize = 2;

/// Set-up state: the running server, the request and its expected C.
pub struct ServeWarm {
    server: Option<Server>,
    addr: String,
    bench: &'static Benchmark,
    sig: Vec<Ty>,
    req: Json,
    expected_c: String,
    cycles: u64,
}

impl std::fmt::Debug for ServeWarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeWarm")
            .field("addr", &self.addr)
            .finish()
    }
}

impl Drop for ServeWarm {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl ServeWarm {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until drop")
    }
}

fn io_err(e: std::io::Error) -> String {
    e.to_string()
}

impl Workload for ServeWarm {
    const CONNS: usize = WORKERS;
    type Conn = Client;
    type Out = Json;

    /// Compiles fft through the library for the expected C, checks that
    /// compilation's simulated output against the independent reference
    /// on the seed's stimulus, starts the server and primes its cache
    /// with one request.
    fn setup(seed: u64) -> Result<ServeWarm, String> {
        let bench = benchmark("fft").ok_or("fft is in the suite")?;
        let n = bench.default_n;
        let sig = bench.arg_types(n);
        let compiled = Compiler::new()
            .compile(bench.source, bench.entry, &sig)
            .map_err(|e| e.to_string())?;
        let inputs = bench.inputs(n, seed);
        let outcome = simulate(&compiled, &inputs)?;
        check_output(bench.id, &outcome, &reference::run(bench.id, &inputs))?;
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: WORKERS,
                budgets: Budgets::default(),
            },
        )
        .map_err(io_err)?;
        let req = obj(vec![
            ("op", Json::Str("compile".into())),
            ("source", Json::Str(bench.source.into())),
            ("entry", Json::Str(bench.entry.into())),
            ("sig", Json::Str(format!("cv{n}"))),
        ]);
        let state = ServeWarm {
            addr: server.addr().to_string(),
            server: Some(server),
            bench,
            sig,
            req,
            expected_c: compiled.c.source.clone(),
            cycles: outcome.cycles.total,
        };
        let mut primer = state.connect()?;
        let resp = state.op(&mut primer)?;
        state.check(&resp)?;
        Ok(state)
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(io_err)
    }

    fn op(&self, conn: &mut Client) -> Result<Json, String> {
        conn.request(&self.req).map_err(io_err)
    }

    /// The socket round trip, then the same request's parts in-process:
    /// the handler alone, the two frames encoded and decoded on memory
    /// buffers, and the stage-cache lookup the handler makes.
    fn traced_op(&self, conn: &mut Client, ctx: Ctx<'_>) -> Result<Json, String> {
        let resp = ctx
            .span("serve.rtt", |_| conn.request(&self.req))
            .map_err(io_err)?;
        let state = self.server().state();
        let local = ctx.span("serve.handle", |_| state.handle(&self.req));
        let frames = ctx
            .span("serve.frame_encode", |_| {
                let (mut req, mut resp) = (Vec::new(), Vec::new());
                write_frame(&mut req, &self.req)?;
                write_frame(&mut resp, &local)?;
                Ok::<_, std::io::Error>([req, resp])
            })
            .map_err(io_err)?;
        let decoded = ctx
            .span("serve.frame_decode", |_| {
                frames
                    .iter()
                    .map(|f| read_frame(&mut f.as_slice(), MAX_FRAME_BYTES))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(io_err)?;
        let before = state.cache().stats();
        ctx.span("core.cache.lookup", |_| {
            Compiler::new().compile_cached(
                state.cache(),
                self.bench.source,
                self.bench.entry,
                &self.sig,
            )
        })
        .map_err(|e| e.to_string())?;
        let after = state.cache().stats();
        ctx.count("core.cache.hits", (after.hits() - before.hits()) as f64);
        ctx.count(
            "core.cache.misses",
            (after.misses() - before.misses()) as f64,
        );
        if local != resp || decoded != [self.req.clone(), local] {
            return Err("in-process replay differs from the socket round trip".to_string());
        }
        Ok(resp)
    }

    fn check(&self, resp: &Json) -> Result<(), String> {
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("request failed: {}", resp.pretty()));
        }
        let c = resp
            .get("result")
            .and_then(|r| r.get("c"))
            .and_then(Json::as_str);
        if c != Some(self.expected_c.as_str()) {
            return Err("served C differs from Compiler::compile".to_string());
        }
        Ok(())
    }

    fn sim_cycles_geomean(&self) -> f64 {
        self.cycles as f64
    }
}
