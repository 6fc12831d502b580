//! The compile pipeline driven one layer at a time, for the traced
//! set-up and the traced `explore` operation: the same public functions
//! `Engine::compile` and `Engine::compile_artifact` call, each inside its
//! own span. `verify` checks that this replica produces exactly what the
//! API produces.

use crate::ledger::Trace;
use safegen_analysis::{annotate_function, SolveMode};
use safegen_api::diag::{compile_program_with, BytecodeProgram, Compiler};
use safegen_api::{
    Artifact, ArtifactMeta, BuildOptions, Engine, PassManager, RunConfig, VariantKind,
};
use safegen_artifact::hash::Sha256;
use safegen_artifact::ProgramVariant;
use safegen_cfront::{Sema, Unit};

/// Artifact name every workload compiles the suite under.
pub const NAME: &str = "suite.c";

/// The front end's output: TAC, semantic tables, plain programs.
pub struct Front {
    pub tac: Unit,
    pub sema: Sema,
    pub passes: PassManager,
    pub plain: Vec<(String, BytecodeProgram)>,
}

/// Parse, sema, TAC and plain bytecode, as `Compiler::compile` runs
/// them, each layer in its span.
pub fn front_end(src: &str, t: &mut Trace) -> Result<Front, String> {
    let err = |e: safegen_cfront::ParseError| e.to_string();
    let unit = t
        .time("cfront.parse", || {
            safegen_cfront::parse(src).map(|u| safegen_cfront::rename_unique(&u))
        })
        .map_err(err)?;
    let unit = t.time("ir.tac", || safegen_ir::fold_constants(&unit));
    let sema = t
        .time("cfront.sema", || safegen_cfront::analyze(&unit))
        .map_err(err)?;
    let (tac, sema) = t.time("ir.tac", || safegen_ir::to_tac_with_sema(&unit, &sema));
    let passes = PassManager::from_env()?;
    let plain = t
        .time("ir.bytecode", || {
            tac.functions
                .iter()
                .map(|f| Ok((f.name.clone(), compile_program_with(f, &sema, &passes)?)))
                .collect::<Result<Vec<_>, safegen_cfront::ParseError>>()
        })
        .map_err(err)?;
    Ok(Front {
        tac,
        sema,
        passes,
        plain,
    })
}

impl Front {
    /// The `kind` variant of `func`, built as `Compiled::compile_variant`
    /// builds it: max-reuse analysis + ILP, then bytecode.
    pub fn variant(
        &self,
        func: &str,
        kind: VariantKind,
        t: &mut Trace,
    ) -> Result<BytecodeProgram, String> {
        match kind {
            VariantKind::Plain => self
                .plain
                .iter()
                .find(|(f, _)| f == func)
                .map(|(_, p)| p.clone())
                .ok_or_else(|| format!("no function `{func}`")),
            VariantKind::Prioritized { k } => {
                let f = self
                    .tac
                    .functions
                    .iter()
                    .find(|f| f.name == func)
                    .ok_or_else(|| format!("no function `{func}`"))?;
                let annotated = t.time("analysis.annotate", || {
                    annotate_function(f, &self.sema, k as usize, SolveMode::Auto)
                });
                t.time("ir.bytecode", || {
                    compile_program_with(&annotated, &self.sema, &self.passes)
                })
                .map_err(|e| e.to_string())
            }
            other => Err(format!("the benchmark uses no {other} variant")),
        }
    }

    /// The artifact `Engine::compile_artifact` builds with prioritized
    /// variants at every budget in `ks`: plain programs in unit order,
    /// then the variants sorted by function and kind.
    pub fn artifact(&self, src: &str, ks: &[usize], t: &mut Trace) -> Result<Artifact, String> {
        let mut programs: Vec<ProgramVariant> = self
            .plain
            .iter()
            .map(|(func, program)| ProgramVariant {
                func: func.clone(),
                kind: VariantKind::Plain,
                program: program.clone(),
            })
            .collect();
        let mut variants = Vec::new();
        for (func, _) in &self.plain {
            for &k in ks {
                let kind = VariantKind::Prioritized { k: k as u32 };
                let program = self.variant(func, kind, t)?;
                variants.push(ProgramVariant {
                    func: func.clone(),
                    kind,
                    program,
                });
            }
        }
        variants.sort_by_key(|v| (v.func.clone(), v.kind.to_string()));
        programs.extend(variants);
        let mut meta = ArtifactMeta::new(NAME);
        meta.passes = self.passes.names().to_vec();
        meta.source_sha256 = Some(Sha256::hex(&Sha256::digest(src.as_bytes())));
        Ok(Artifact { meta, programs })
    }
}

/// Build options of the artifact workloads: prioritized variants at
/// `ks`, no compile cache (every set-up compiles from source).
pub fn build_options(ks: &[usize]) -> BuildOptions {
    let mut opts = BuildOptions::new(NAME);
    opts.ks = ks.to_vec();
    opts.use_cache = false;
    opts
}

/// Checks the replica against the API: plain programs equal
/// `Compiler::compile`'s, every variant of `configs` equals
/// `Compiled::program_for`'s, and (for `ks`) the artifact bytes equal
/// `Engine::compile_artifact`'s.
pub fn verify(
    front: &Front,
    src: &str,
    configs: &[RunConfig],
    ks: Option<&[usize]>,
) -> Result<(), String> {
    let compiled = Compiler::new().compile(src).map_err(|e| e.to_string())?;
    let mut scratch = Trace::new();
    for (func, program) in &front.plain {
        if compiled.program(func) != program {
            return Err(format!("replicated plain program of `{func}` differs"));
        }
        for cfg in configs {
            let kind = compiled.variant_kind_for(cfg);
            if front.variant(func, kind, &mut scratch)? != compiled.program_for(func, cfg) {
                return Err(format!("replicated {kind} variant of `{func}` differs"));
            }
        }
    }
    if let Some(ks) = ks {
        let (api, _) = Engine::new()
            .compile_artifact(src, &build_options(ks))
            .map_err(|e| e.to_string())?;
        if front.artifact(src, ks, &mut scratch)?.to_bytes() != api.to_bytes() {
            return Err("replicated artifact bytes differ from Engine::compile_artifact".into());
        }
    }
    Ok(())
}

/// Strict variant selection on an artifact, as the facade does it.
pub fn select<'a>(
    artifact: &'a Artifact,
    kind: VariantKind,
    func: &str,
) -> Result<&'a BytecodeProgram, String> {
    artifact
        .find(func, &kind)
        .ok_or_else(|| format!("artifact has no {kind} variant of `{func}`"))
}
