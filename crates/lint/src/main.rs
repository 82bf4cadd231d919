//! CLI entry point for `asrank-lint`.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error — so
//! `make lint` and CI can gate on it directly.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
asrank-lint — repo-specific static checks for the asrank workspace

USAGE:
    asrank-lint [--root DIR] [--format human|json] [--rule L00N]...
                [--strict] [--fix-annotations]

OPTIONS:
    --root DIR         workspace root to scan (default: .)
    --format FMT       output format: human (default) or json
    --rule L00N        run only the named rule(s); repeatable
    --strict           also audit the annotations themselves (L000:
                       unknown slugs, missing reasons)
    --fix-annotations  dry run: print the exact allow-annotation line and
                       location for each finding (writes nothing)
    --list-rules       print the rule table and exit
    -h, --help         show this help

Rules L001-L005 are scoped per file; L006-L010 are cross-file semantic
passes over the whole workspace (see README.md); L010 also reads
benchmark/src and examples/ as callers. Suppress a single
finding with a trailing or preceding comment:
    // lint: allow(<slug>, <reason>)
The reason is mandatory; annotations without one are ignored.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut format = String::from("human");
    let mut rules: Vec<String> = Vec::new();
    let mut strict = false;
    let mut fix_annotations = false;

    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--list-rules" => {
                for r in &asrank_lint::RULES {
                    println!("{} [{}] {}", r.id, r.slug, r.summary);
                }
                let m = &asrank_lint::META_RULE;
                println!("{} [{}] {} (--strict only)", m.id, m.slug, m.summary);
                return ExitCode::SUCCESS;
            }
            "--root" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("error: --root needs a value\n{USAGE}");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(v);
                i += 1;
            }
            "--format" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("error: --format needs a value\n{USAGE}");
                    return ExitCode::from(2);
                };
                if v != "human" && v != "json" {
                    eprintln!("error: unknown format `{v}` (human|json)");
                    return ExitCode::from(2);
                }
                format = v.clone();
                i += 1;
            }
            "--rule" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("error: --rule needs a value\n{USAGE}");
                    return ExitCode::from(2);
                };
                if !asrank_lint::RULES.iter().any(|r| r.id == v) && v != asrank_lint::META_RULE.id {
                    eprintln!("error: unknown rule `{v}` (try --list-rules)");
                    return ExitCode::from(2);
                }
                rules.push(v.clone());
                i += 1;
            }
            "--strict" => strict = true,
            "--fix-annotations" => fix_annotations = true,
            other => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "error: {} does not look like a workspace root (no Cargo.toml); use --root",
            root.display()
        );
        return ExitCode::from(2);
    }

    let report = match asrank_lint::lint_workspace(&root, &rules, strict) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if fix_annotations {
        print!("{}", asrank_lint::render_fix_annotations(&report));
    } else if format == "json" {
        print!("{}", asrank_lint::render_json(&report));
    } else {
        print!("{}", asrank_lint::render_human(&report));
    }

    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
