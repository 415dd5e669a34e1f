//! Hermeticity guard: the workspace must stay zero-dependency.
//!
//! Every crate manifest is parsed and any dependency that is not an in-tree
//! `f2-*` path crate (or the `flagship2` facade itself) fails the test. This
//! is what keeps `cargo build` working on an air-gapped machine — the
//! property the whole CI pipeline is built on. If you are reading this
//! because the test failed: the fix is to extend `f2-core`, not to add the
//! external crate.
//!
//! The same file pins the environment variables the sources read, so a
//! new one cannot slip in beside a flag that already does its job.

use std::collections::BTreeSet;
use std::path::PathBuf;

/// Every environment variable the workspace reads. None has a flag that
/// does the same job.
const ENV_VARS: &[&str] = &["F2_BLESS", "F2_PTEST_CASES", "F2_PTEST_SEED", "F2_THREADS"];

/// Manifest sections whose entries are dependencies.
const DEP_SECTIONS: &[&str] = &[
    "dependencies",
    "dev-dependencies",
    "build-dependencies",
    "workspace.dependencies",
];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn manifest_paths() -> Vec<PathBuf> {
    let root = workspace_root();
    let mut paths = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    let entries = std::fs::read_dir(&crates).expect("crates/ directory exists");
    for entry in entries {
        let manifest = entry.expect("readable dir entry").path().join("Cargo.toml");
        assert!(
            manifest.is_file(),
            "every crates/ entry must be a crate: {manifest:?}"
        );
        paths.push(manifest);
    }
    assert!(paths.len() >= 9, "expected the full 8-crate workspace");
    paths
}

/// Extracts `(section, dependency-name)` pairs from a manifest. Handles the
/// two forms the workspace uses: `name = ...` lines under a `[section]`
/// header, and `[section.name]` table headers.
fn dependencies_of(text: &str) -> Vec<(String, String)> {
    let mut deps = Vec::new();
    let mut section: Option<String> = None;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            let header = &line[1..line.len() - 1];
            section = None;
            for s in DEP_SECTIONS {
                if header == *s {
                    section = Some((*s).to_string());
                } else if let Some(name) = header.strip_prefix(&format!("{s}.")) {
                    // [dependencies.foo] style: the header itself is a dep.
                    deps.push(((*s).to_string(), name.to_string()));
                }
            }
            continue;
        }
        if let Some(s) = &section {
            if let Some((key, _)) = line.split_once('=') {
                // `f2-core.workspace = true` names the dependency `f2-core`.
                let name = key.trim().trim_matches('"');
                let name = name.split('.').next().unwrap_or(name);
                deps.push((s.clone(), name.to_string()));
            }
        }
    }
    deps
}

fn is_in_tree(name: &str) -> bool {
    name.starts_with("f2-") || name == "flagship2"
}

#[test]
fn workspace_has_no_external_dependencies() {
    for manifest in manifest_paths() {
        let text = std::fs::read_to_string(&manifest).expect("readable manifest");
        for (section, name) in dependencies_of(&text) {
            assert!(
                is_in_tree(&name),
                "{}: [{section}] pulls in external crate `{name}` — the \
                 workspace is hermetic by design; extend f2-core instead",
                manifest.display()
            );
        }
    }
}

#[test]
fn in_tree_dependencies_are_path_only() {
    // The workspace dependency table must declare f2-* crates via `path`,
    // never by registry version.
    let root = workspace_root().join("Cargo.toml");
    let text = std::fs::read_to_string(root).expect("readable manifest");
    for (section, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with("f2-") && line.contains('=') {
            assert!(
                line.contains("path") || line.contains(".workspace"),
                "workspace Cargo.toml line {}: `{line}` must be a path dependency",
                section + 1
            );
        }
    }
}

#[test]
fn dependency_parser_sees_all_section_forms() {
    let text = r#"
[package]
name = "demo"

[dependencies]
f2-core.workspace = true
serde = "1"

[dev-dependencies.proptest]
version = "1"

[target.x.dependencies]
ignored = "0"
"#;
    let deps = dependencies_of(text);
    assert!(deps.contains(&("dependencies".into(), "f2-core".into())));
    assert!(deps.contains(&("dependencies".into(), "serde".into())));
    assert!(deps.contains(&("dev-dependencies".into(), "proptest".into())));
    // `name = "demo"` under [package] must not be reported.
    assert!(!deps.iter().any(|(_, n)| n == "demo"));
}

#[test]
fn guard_catches_this_workspace_if_it_regresses() {
    // Self-check on the real root manifest: it must contain dependencies at
    // all (otherwise the guard guards nothing).
    let text = std::fs::read_to_string(workspace_root().join("Cargo.toml")).expect("readable");
    let deps = dependencies_of(&text);
    assert!(
        deps.iter().filter(|(_, n)| n.starts_with("f2-")).count() >= 7,
        "root manifest should declare the seven f2-* crates, got {deps:?}"
    );
}

/// The `F2_` names that open a string literal in one source text.
fn env_var_literals(text: &str) -> Vec<&str> {
    text.match_indices("\"F2")
        .map(|(i, _)| {
            let name = &text[i + 1..];
            let end = name
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(name.len());
            &name[..end]
        })
        .filter(|name| name.strip_prefix("F2").is_some_and(|r| r.starts_with('_')))
        .collect()
}

#[test]
fn sources_read_only_the_pinned_environment_variables() {
    let root = workspace_root();
    let mut pending: Vec<PathBuf> = ["crates", "src", "tests", "examples"]
        .iter()
        .map(|dir| root.join(dir))
        .collect();
    let mut found = BTreeSet::new();
    while let Some(path) = pending.pop() {
        if path.is_dir() {
            for entry in std::fs::read_dir(&path).expect("readable dir") {
                pending.push(entry.expect("readable dir entry").path());
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source");
            found.extend(env_var_literals(&text).into_iter().map(str::to_string));
        }
    }
    let want: BTreeSet<String> = ENV_VARS.iter().map(|v| v.to_string()).collect();
    assert_eq!(
        found, want,
        "the sources spell a different set of environment variables than \
         ENV_VARS; prefer a flag to a new variable"
    );
}
