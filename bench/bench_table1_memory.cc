/**
 * @file
 * Reproduces paper Table I: embedding-table memory requirement for
 * Insecure / PathORAM / LAORAM / FAT across the four evaluation
 * configurations (8M, 16M, Kaggle, XNLI).
 *
 * Pure geometry — runs at full paper scale instantly (no storage is
 * allocated). The paper's own FAT column (+25 % / +50 %) is printed
 * alongside; our linear 2Z->Z profile yields ~+12.5 %, a discrepancy
 * discussed in EXPERIMENTS.md.
 */

#include <cstdio>
#include <iostream>

#include "common/harness.hh"
#include "oram/server_storage.hh"
#include "oram/tree_geometry.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace laoram;
using oram::BucketProfile;
using oram::TreeGeometry;

namespace {

struct Row
{
    const char *name;
    std::uint64_t entries;
    std::uint64_t bytes;
    const char *paperInsecure;
    const char *paperPath;
    const char *paperLaoram;
    const char *paperFat;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_table1_memory",
                   "Reproduces Table I (memory requirement)");
    auto z = args.addUint("bucket", "leaf bucket size Z", 4);
    args.parse(argc, argv);

    bench::printHeader(
        "Table I — Embedding table memory requirement",
        "paper values in parentheses; LAORAM column equals PathORAM "
        "(same tree), FAT uses the linear 2Z->Z profile of Section V");

    const Row rows[] = {
        {"8M", 8ULL << 20, 128, "1GB", "8GB", "8GB", "10GB"},
        {"16M", 16ULL << 20, 128, "2GB", "16GB", "16GB", "24GB"},
        {"Kaggle", 10131227, 128, "1.2GB", "16GB", "16GB", "20.3GB"},
        {"XNLI", 262144, 4096, "1GB", "16GB", "16GB", "20.5GB"},
    };

    TextTable table({"config", "insecure", "PathORAM", "LAORAM", "FAT",
                     "fat overhead"});
    for (const Row &r : rows) {
        // The paper's system keeps no treetop: §V's linear fat tree.
        const TreeGeometry uniform(r.entries, r.bytes,
                                   BucketProfile::uniform(*z), 0);
        const TreeGeometry fat(r.entries, r.bytes,
                               BucketProfile::fat(*z), 0);
        const std::uint64_t insecure =
            TreeGeometry::insecureBytes(r.entries, r.bytes);
        const double overhead =
            static_cast<double>(fat.serverBytes())
                / static_cast<double>(uniform.serverBytes())
            - 1.0;
        table.addRow({
            r.name,
            TextTable::bytesCell(insecure) + " (" + r.paperInsecure
                + ")",
            TextTable::bytesCell(uniform.serverBytes()) + " ("
                + r.paperPath + ")",
            TextTable::bytesCell(uniform.serverBytes()) + " ("
                + r.paperLaoram + ")",
            TextTable::bytesCell(fat.serverBytes()) + " (" + r.paperFat
                + ")",
            "+" + TextTable::cell(overhead * 100.0, 1) + "%",
        });
    }
    table.print(std::cout);

    std::cout << "\nCSV:\n";
    table.printCsv(std::cout);

    std::cout << "\nnote: PathORAM's 8x blow-up over insecure (Z=4, one"
                 " leaf per block)\nis reproduced exactly; the paper's"
                 " FAT +25%/+50% rows are not derivable\nfrom its own"
                 " linear bucket rule (see EXPERIMENTS.md).\n";

    // The table above is *tree size* (geometry). Which of those bytes
    // are actually DRAM is a storage-backend property: a DRAM tree is
    // fully resident, an mmap tree keeps only its touched page set in
    // memory and the rest on disk. Demonstrate with a real (small)
    // tree so the distinction stays honest.
    std::cout << "\nDRAM-resident vs file-backed (measured, "
              << (1 << 16) << "-entry tree, 128 B payload):\n";
    {
        const TreeGeometry geom(1 << 16, 128,
                                BucketProfile::uniform(*z), 0);
        const char *treeFile = "table1_resident_demo.tree";

        storage::StorageConfig dramCfg; // default: DRAM
        oram::ServerStorage dram(geom, 128, false, 1, dramCfg);

        storage::StorageConfig mmapCfg;
        mmapCfg.kind = storage::BackendKind::MmapFile;
        mmapCfg.path = treeFile;
        oram::ServerStorage mapped(geom, 128, false, 1, mmapCfg);
        mapped.flush();
        mapped.dropPageCache();

        TextTable res({"backend", "tree bytes", "DRAM-resident"});
        res.addRow({"dram", TextTable::bytesCell(geom.serverBytes()),
                    TextTable::bytesCell(dram.residentBytes())});
        res.addRow({"mmap (cold)",
                    TextTable::bytesCell(geom.serverBytes()),
                    TextTable::bytesCell(mapped.residentBytes())});
        res.print(std::cout);
        std::remove(treeFile);
    }
    std::cout << "\nan mmap tree's resident footprint is its touched "
                 "page set, not its\nfile size — ServerStorage::"
                 "residentBytes() reports the measured set.\n";
    return 0;
}
