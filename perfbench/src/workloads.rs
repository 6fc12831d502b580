//! The three workloads. Each sets up from the suite's C source and runs
//! operations two ways: through the public API as a user would (timed,
//! untraced), and through each layer's own calls inside spans (traced).

use crate::check::{self, Out};
use crate::layers::{self, Front};
use crate::ledger::Trace;
use crate::suite::{Op, Suite};
use safegen_api::diag::run_on;
use safegen_api::jsonreq::handle_eval;
use safegen_api::serve::{self, ServeOptions};
use safegen_api::telemetry::json::Json;
use safegen_api::{
    ArgValue, Artifact, BatchOptions, Engine, EvalRequest, EvalResult, Program, RunConfig,
    RunReport,
};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What one operation returned, before decoding and checking.
pub enum Raw {
    Eval(EvalResult),
    Report(RunReport),
    Wire(Json),
}

pub trait Bench {
    /// Set-up through the public API: from C source to ready to take the
    /// first operation.
    fn setup(&mut self) -> Result<(), String>;
    /// The same set-up through each layer's own calls, recorded in `t`.
    fn setup_traced(&mut self, t: &mut Trace) -> Result<(), String>;
    /// Checks that the traced set-up built exactly what the API builds.
    fn verify(&self, ops: &[Op]) -> Result<(), String>;
    /// Stops what set-up started.
    fn teardown(&mut self) -> Result<(), String>;
    /// Builds the requests and the in-process references of `ops`.
    fn prepare(&mut self, ops: &[Op]) -> Result<(), String>;
    /// One operation, as a user runs it.
    fn exec(&self, op: &Op) -> Result<Raw, String>;
    /// One operation through the layer calls, recorded in `t`.
    fn exec_traced(&self, op: &Op, t: &mut Trace) -> Result<Raw, String>;
    /// Decodes an operation's result and checks it against the
    /// workload's in-process reference.
    fn outputs(&self, op: &Op, raw: Raw) -> Result<Vec<Out>, String>;
    /// Bytecode instructions in the variants set-up materialized.
    fn instrs(&self) -> usize {
        self.program()
            .map_or(0, |p| p.variants().iter().map(|v| v.instrs).sum())
    }
    /// Size of the artifact set-up encodes (0 without one).
    fn artifact_bytes(&self) -> usize {
        0
    }
    fn program(&self) -> Option<&Program>;
    /// Lane-group width of batch evaluation (0 = the engine's default).
    fn set_lanes(&mut self, _lanes: usize) {}
    /// Readies the set-up program for another timed cycle (untimed).
    fn next_cycle(&mut self) -> Result<(), String> {
        Ok(())
    }
}

fn api_err(e: safegen_api::ApiError) -> String {
    e.to_string()
}

fn configs(ops: &[Op]) -> Vec<RunConfig> {
    let mut seen = Vec::new();
    let mut out = Vec::new();
    for op in ops {
        if !seen.contains(&op.config) {
            seen.push(op.config);
            out.push(op.run.clone());
        }
    }
    out
}

/// Closes `root` before handing on `r`, so a failed layer call leaves no
/// span open.
fn closed<T>(t: &mut Trace, root: usize, r: Result<T, String>) -> Result<T, String> {
    t.end(root);
    r
}

// ---------------------------------------------------------------------
// explore: in-process Engine::compile, variants built on demand
// ---------------------------------------------------------------------

pub struct Explore<'s> {
    suite: &'s Suite,
    program: Option<Program>,
    front: Option<Front>,
    requests: Vec<EvalRequest>,
}

impl<'s> Explore<'s> {
    pub fn new(suite: &'s Suite) -> Explore<'s> {
        Explore {
            suite,
            program: None,
            front: None,
            requests: Vec::new(),
        }
    }

    fn ready(&self) -> Result<(&Program, &Front), String> {
        match (&self.program, &self.front) {
            (Some(p), Some(f)) => Ok((p, f)),
            _ => Err("explore is not set up".into()),
        }
    }
}

impl Bench for Explore<'_> {
    fn setup(&mut self) -> Result<(), String> {
        self.program = Some(
            Engine::new()
                .compile(&self.suite.source, layers::NAME)
                .map_err(api_err)?,
        );
        Ok(())
    }

    fn setup_traced(&mut self, t: &mut Trace) -> Result<(), String> {
        let root = t.begin("setup");
        let front = layers::front_end(&self.suite.source, t);
        self.front = Some(closed(t, root, front)?);
        Ok(())
    }

    fn verify(&self, ops: &[Op]) -> Result<(), String> {
        let (_, front) = self.ready()?;
        layers::verify(front, &self.suite.source, &configs(ops), None)
    }

    fn teardown(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn prepare(&mut self, ops: &[Op]) -> Result<(), String> {
        self.requests = ops
            .iter()
            .map(|op| {
                EvalRequest::new(self.suite.programs[op.prog].func, op.run.clone())
                    .with_args(op.inputs[0].args.clone())
            })
            .collect();
        Ok(())
    }

    fn exec(&self, op: &Op) -> Result<Raw, String> {
        let program = self.program.as_ref().ok_or("explore is not set up")?;
        program
            .eval(&self.requests[op.id])
            .map(Raw::Eval)
            .map_err(api_err)
    }

    fn exec_traced(&self, op: &Op, t: &mut Trace) -> Result<Raw, String> {
        let (program, front) = self.ready()?;
        let func = self.suite.programs[op.prog].func;
        let root = t.begin("op");
        let variant = t.begin("core.variant");
        let prog = front.variant(func, program.variant_kind(&op.run), t);
        t.end(variant);
        let report =
            prog.and_then(|prog| t.time("vm.exec", || run_on(&prog, &op.inputs[0].args, &op.run)));
        closed(t, root, report).map(Raw::Report)
    }

    fn outputs(&self, _op: &Op, raw: Raw) -> Result<Vec<Out>, String> {
        Ok(match raw {
            Raw::Eval(r) => r.reports().map(Out::from_report).collect(),
            Raw::Report(r) => vec![Out::from_report(&r)],
            Raw::Wire(_) => return Err("explore never talks to a daemon".into()),
        })
    }

    fn program(&self) -> Option<&Program> {
        self.program.as_ref()
    }
}

// ---------------------------------------------------------------------
// Artifact-backed set-up shared by serve and batch
// ---------------------------------------------------------------------

/// A loaded artifact: the program the API serves from, its encoded
/// bytes, and the decoded artifact the traced run selects variants from.
#[derive(Default)]
struct Loaded {
    program: Option<Program>,
    bytes: Vec<u8>,
    artifact: Option<Artifact>,
    front: Option<Front>,
}

impl Loaded {
    fn setup(&mut self, src: &str, ks: &[usize]) -> Result<Program, String> {
        let engine = Engine::new();
        let (compiled, _) = engine
            .compile_artifact(src, &layers::build_options(ks))
            .map_err(api_err)?;
        self.bytes = compiled.to_bytes();
        let program = engine.load_bytes(&self.bytes).map_err(api_err)?;
        self.program = Some(program.clone());
        Ok(program)
    }

    /// Front end, variants, encode and load, each in its span, under the
    /// open set-up span.
    fn setup_traced(&mut self, src: &str, ks: &[usize], t: &mut Trace) -> Result<Program, String> {
        let front = layers::front_end(src, t)?;
        let artifact = front.artifact(src, ks, t)?;
        self.bytes = t.time("artifact.encode", || artifact.to_bytes());
        let program = t
            .time("artifact.load", || Engine::new().load_bytes(&self.bytes))
            .map_err(api_err)?;
        self.front = Some(front);
        self.program = Some(program.clone());
        Ok(program)
    }

    fn verify(&self, src: &str, ks: &[usize], ops: &[Op]) -> Result<(), String> {
        let front = self.front.as_ref().ok_or("not set up through the layers")?;
        layers::verify(front, src, &configs(ops), Some(ks))
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.artifact = Some(Artifact::from_bytes(&self.bytes).map_err(|e| e.to_string())?);
        Ok(())
    }

    fn ready(&self) -> Result<(&Program, &Artifact), String> {
        match (&self.program, &self.artifact) {
            (Some(p), Some(a)) => Ok((p, a)),
            _ => Err("artifact is not loaded".into()),
        }
    }

    /// Strict variant selection, timed as a shadow of the opaque call
    /// `of` that performed it.
    fn select_shadow<'a>(
        &'a self,
        op: &Op,
        func: &str,
        of: usize,
        t: &mut Trace,
    ) -> Result<&'a safegen_api::diag::BytecodeProgram, String> {
        let (program, artifact) = self.ready()?;
        let id = t.begin_shadow("core.variant", of);
        let prog = layers::select(artifact, program.variant_kind(&op.run), func);
        t.end(id);
        prog
    }
}

// ---------------------------------------------------------------------
// serve: one daemon over the suite's artifact, one connection per eval
// ---------------------------------------------------------------------

const SERVE_KS: [usize; 2] = [8, 16];

struct Daemon {
    socket: PathBuf,
    thread: JoinHandle<Result<(), String>>,
}

pub struct Serve<'s> {
    suite: &'s Suite,
    run_dir: PathBuf,
    loaded: Loaded,
    daemon: Option<Daemon>,
    started: usize,
    bodies: Vec<Json>,
    /// In-process results of each request: the response text the daemon
    /// must send, and the exact result it stands for (non-finite numbers
    /// travel as `null`, so the wire alone cannot be checked against the
    /// native reference).
    references: Vec<(String, Out)>,
}

impl<'s> Serve<'s> {
    pub fn new(suite: &'s Suite, run_dir: PathBuf) -> Serve<'s> {
        Serve {
            suite,
            run_dir,
            loaded: Loaded::default(),
            daemon: None,
            started: 0,
            bodies: Vec::new(),
            references: Vec::new(),
        }
    }

    fn start_daemon(&mut self, program: Program) -> Result<(), String> {
        let socket = self
            .run_dir
            .join(format!("d{}-{}.sock", std::process::id(), self.started));
        self.started += 1;
        let opts = ServeOptions::new(&socket);
        let thread = std::thread::spawn(move || serve::serve(program, &opts));
        let ready = wait_answering(&socket);
        self.daemon = Some(Daemon { socket, thread });
        ready
    }

    fn socket(&self) -> Result<&PathBuf, String> {
        self.daemon
            .as_ref()
            .map(|d| &d.socket)
            .ok_or_else(|| "no daemon running".to_string())
    }
}

/// Waits until a daemon answers a ping on `socket`, polling every 50 µs so
/// that the wait ends within that much of the daemon's readiness
/// (`serve::wait_ready` sleeps 5 ms between pings, longer than a daemon
/// takes to start).
fn wait_answering(socket: &Path) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let ping = Json::obj(vec![("op", Json::from("ping"))]);
    loop {
        match serve::request(socket, &ping) {
            Ok(_) => return Ok(()),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("daemon on {} not ready: {e}", socket.display()))
            }
            Err(_) => std::thread::sleep(Duration::from_micros(50)),
        }
    }
}

fn arg_json(a: &ArgValue) -> Json {
    match a {
        ArgValue::Float(x) => Json::Num(*x),
        ArgValue::Int(n) => Json::obj(vec![("int", Json::Num(*n as f64))]),
        ArgValue::Array(xs) => Json::obj(vec![(
            "array",
            Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect()),
        )]),
    }
}

impl Bench for Serve<'_> {
    fn setup(&mut self) -> Result<(), String> {
        let program = self.loaded.setup(&self.suite.source, &SERVE_KS)?;
        self.start_daemon(program)
    }

    fn setup_traced(&mut self, t: &mut Trace) -> Result<(), String> {
        let root = t.begin("setup");
        let built = self
            .loaded
            .setup_traced(&self.suite.source, &SERVE_KS, t)
            .and_then(|program| t.time("serve.ready", || self.start_daemon(program)));
        closed(t, root, built)
    }

    fn verify(&self, ops: &[Op]) -> Result<(), String> {
        self.loaded.verify(&self.suite.source, &SERVE_KS, ops)
    }

    fn teardown(&mut self) -> Result<(), String> {
        let Some(d) = self.daemon.take() else {
            return Ok(());
        };
        let bye = serve::request(&d.socket, &Json::obj(vec![("op", Json::from("shutdown"))]));
        let joined = d
            .thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        bye.and(joined)
    }

    fn prepare(&mut self, ops: &[Op]) -> Result<(), String> {
        self.loaded.prepare()?;
        let (program, _) = self.loaded.ready()?;
        self.bodies = ops
            .iter()
            .map(|op| {
                Json::obj(vec![
                    ("op", Json::from("eval")),
                    ("func", Json::from(self.suite.programs[op.prog].func)),
                    ("config", Json::from(op.config.name)),
                    ("k", Json::from(op.config.k)),
                    (
                        "args",
                        Json::Arr(op.inputs[0].args.iter().map(arg_json).collect()),
                    ),
                ])
            })
            .collect();
        self.references = ops
            .iter()
            .zip(&self.bodies)
            .map(|(op, body)| {
                let (response, _) = handle_eval(body, program).map_err(|(_, msg)| msg)?;
                let req = EvalRequest::new(self.suite.programs[op.prog].func, op.run.clone())
                    .with_args(op.inputs[0].args.clone());
                let exact = program.eval(&req).map_err(api_err)?;
                Ok((
                    check::response_text(&response),
                    Out::from_report(exact.report()),
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(())
    }

    fn exec(&self, op: &Op) -> Result<Raw, String> {
        serve::request(self.socket()?, &self.bodies[op.id]).map(Raw::Wire)
    }

    fn exec_traced(&self, op: &Op, t: &mut Trace) -> Result<Raw, String> {
        let socket = self.socket()?;
        let (program, _) = self.loaded.ready()?;
        let body = &self.bodies[op.id];
        let root = t.begin("op");
        let request = t.begin("serve.request");
        let response = serve::request(socket, body);
        t.end(request);
        let response = closed(t, root, response)?;
        // The daemon's work, repeated in-process on the same request line.
        let handle = t.begin_shadow("api.handle_eval", request);
        let handled = handle_eval(body, program);
        t.end(handle);
        handled.map_err(|(_, msg)| msg)?;
        let prog = self
            .loaded
            .select_shadow(op, self.suite.programs[op.prog].func, handle, t)?;
        let exec = t.begin_shadow("vm.exec", handle);
        let report = run_on(prog, &op.inputs[0].args, &op.run);
        t.end(exec);
        report?;
        Ok(Raw::Wire(response))
    }

    fn outputs(&self, op: &Op, raw: Raw) -> Result<Vec<Out>, String> {
        let Raw::Wire(response) = raw else {
            return Err("serve answers over the daemon only".into());
        };
        if response.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("daemon error: {response}"));
        }
        let (text, exact) = &self.references[op.id];
        if check::response_text(&response) != *text {
            return Err("daemon response differs from the in-process eval".into());
        }
        Ok(vec![exact.clone()])
    }

    fn artifact_bytes(&self) -> usize {
        self.loaded.bytes.len()
    }

    fn program(&self) -> Option<&Program> {
        self.loaded.program.as_ref()
    }

    /// A fresh daemon on the same program. A daemon keeps every finished
    /// connection's thread and stack until it shuts down; a restart per
    /// cycle keeps a cycle's cost from depending on how many cycles came
    /// before it (in paired runs, one daemon for the whole run read a 4 to
    /// 13 % higher 90th percentile of the wall-time latency ratio).
    fn next_cycle(&mut self) -> Result<(), String> {
        self.teardown()?;
        let program = self.loaded.program.clone().ok_or("serve is not set up")?;
        self.start_daemon(program)
    }
}

// ---------------------------------------------------------------------
// batch: artifact-backed eval_batch_seeded on one worker thread
// ---------------------------------------------------------------------

const BATCH_KS: [usize; 1] = [8];

pub struct Batch<'s> {
    suite: &'s Suite,
    loaded: Loaded,
    lanes: usize,
    /// Fingerprints of single in-process evals of every item.
    references: Vec<Vec<u64>>,
}

impl<'s> Batch<'s> {
    pub fn new(suite: &'s Suite) -> Batch<'s> {
        Batch {
            suite,
            loaded: Loaded::default(),
            lanes: 0,
            references: Vec::new(),
        }
    }

    fn eval(&self, op: &Op) -> Result<EvalResult, String> {
        let (program, _) = self.loaded.ready()?;
        program
            .eval_batch_seeded(
                self.suite.programs[op.prog].func,
                &op.run,
                op.inputs.len(),
                op.batch_seed,
                |_, i| op.inputs[i].args.clone(),
                &BatchOptions::with_threads(1).with_lanes(self.lanes),
            )
            .map_err(api_err)
    }
}

impl Bench for Batch<'_> {
    fn setup(&mut self) -> Result<(), String> {
        self.loaded.setup(&self.suite.source, &BATCH_KS).map(drop)
    }

    fn setup_traced(&mut self, t: &mut Trace) -> Result<(), String> {
        let root = t.begin("setup");
        let built = self.loaded.setup_traced(&self.suite.source, &BATCH_KS, t);
        closed(t, root, built).map(drop)
    }

    fn verify(&self, ops: &[Op]) -> Result<(), String> {
        self.loaded.verify(&self.suite.source, &BATCH_KS, ops)
    }

    fn teardown(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn prepare(&mut self, ops: &[Op]) -> Result<(), String> {
        self.loaded.prepare()?;
        let (program, _) = self.loaded.ready()?;
        self.references = ops
            .iter()
            .map(|op| {
                op.inputs
                    .iter()
                    .map(|input| {
                        let req =
                            EvalRequest::new(self.suite.programs[op.prog].func, op.run.clone())
                                .with_args(input.args.clone());
                        program
                            .eval(&req)
                            .map(|r| Out::from_report(r.report()).fingerprint())
                            .map_err(api_err)
                    })
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    fn exec(&self, op: &Op) -> Result<Raw, String> {
        self.eval(op).map(Raw::Eval)
    }

    fn exec_traced(&self, op: &Op, t: &mut Trace) -> Result<Raw, String> {
        let root = t.begin("op");
        let exec = t.begin("vm.exec");
        let result = self.eval(op);
        t.end(exec);
        let result = closed(t, root, result)?;
        self.loaded
            .select_shadow(op, self.suite.programs[op.prog].func, exec, t)?;
        Ok(Raw::Eval(result))
    }

    fn outputs(&self, op: &Op, raw: Raw) -> Result<Vec<Out>, String> {
        let Raw::Eval(result) = raw else {
            return Err("batch evaluates in-process only".into());
        };
        let outs: Vec<Out> = result.reports().map(Out::from_report).collect();
        let refs = &self.references[op.id];
        if outs.iter().map(Out::fingerprint).ne(refs.iter().copied()) {
            return Err("batch result differs from single in-process evals".into());
        }
        Ok(outs)
    }

    fn artifact_bytes(&self) -> usize {
        self.loaded.bytes.len()
    }

    fn program(&self) -> Option<&Program> {
        self.loaded.program.as_ref()
    }

    fn set_lanes(&mut self, lanes: usize) {
        self.lanes = lanes;
    }
}
