//! Static dissection of a synthetic malware binary — what an analyst's
//! first pass (file/readelf/strings/objdump) sees.
//!
//! Run: `cargo run --release --example dissect`

use std::net::Ipv4Addr;

use malnet::botgen::binary::{emit_elf, extract_program};
use malnet::botgen::botvm;
use malnet::botgen::exploitdb::VulnId;
use malnet::botgen::programs::compile;
use malnet::botgen::spec::{BehaviorSpec, C2Endpoint, ExploitPlan};
use malnet::intel::{avclass2_label, yara_label};
use malnet::mips::dis;
use malnet::mips::elf::ElfFile;

fn main() {
    let spec = BehaviorSpec {
        c2: vec![(
            C2Endpoint::Domain("cnc.dyn-13.example-cdn.net".into()),
            48101,
        )],
        exploits: vec![ExploitPlan {
            vuln: VulnId::DlinkHnap,
            downloader: Ipv4Addr::new(45, 0, 3, 7),
            loader: "8UsA.sh".into(),
            full_gpon: true,
        }],
        ..Default::default()
    };
    let elf_bytes = emit_elf(&compile(&spec), b"dissect-demo");

    // --- file / readelf ----------------------------------------------------
    let elf = ElfFile::parse(&elf_bytes).expect("valid ELF");
    println!("ELF32 MSB executable, MIPS, entry {:#010x}", elf.entry);
    for seg in &elf.segments {
        println!(
            "  {:<8} vaddr {:#010x} filesz {:>6} memsz {:>6} {}{}R",
            seg.name,
            seg.vaddr,
            seg.data.len(),
            seg.memsz,
            if seg.executable { "X" } else { "-" },
            if seg.writable { "W" } else { "-" },
        );
    }

    // --- strings: the IoCs a static pass finds ------------------------------
    println!("\ninteresting strings:");
    for s in elf.strings(10) {
        if s.contains("http") || s.contains("HNAP") || s.contains("busybox") || s.contains(".sh") {
            println!("  {s}");
        }
    }

    // --- objdump: the head of the interpreter stub --------------------------
    let text = &elf.segments[0];
    println!("\n.text disassembly (first 12 instructions):");
    for line in dis::disassemble_all(&text.data[..48], text.vaddr) {
        println!("  {line}");
    }

    // --- the embedded behaviour program --------------------------------------
    let prog = extract_program(&elf_bytes).expect("config parses");
    let ops = botvm::decode_all(&prog.bytecode).expect("bytecode decodes");
    println!(
        "\nbot program: {} bytecode records, {} bytes of data blob",
        ops.len(),
        prog.blob.len()
    );
    for (i, op) in ops.iter().take(10).enumerate() {
        println!("  [{i:>3}] {op}");
    }

    // --- family labels --------------------------------------------------------
    let yara = yara_label(&elf_bytes);
    println!(
        "\nYARA label: {yara:?}; AVClass2 label: {:?}",
        avclass2_label(yara)
    );
}
