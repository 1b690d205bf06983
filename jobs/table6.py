"""Entrypoint for Table 6 (TWCS vs KGEval).

KGEval's coupling graph and inference and the TWCS Monte-Carlo trials
all run in the driver, so it runs as a plain python script too.
"""
from repro.tables import table6

if __name__ == "__main__":
    rows = table6.compute()
    print(table6.table_text(rows))
