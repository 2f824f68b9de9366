import sys
from pathlib import Path

# The benchmark measures the qrep sources of the checkout it lives in.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
